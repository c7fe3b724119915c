//! Scenario registry: every sizing problem in the workspace, registered by
//! name with its technology nodes and corner sweep.
//!
//! The registry is the single place a new circuit has to be added to become
//! available everywhere — the `kato` CLI, the corner audit in `kato`
//! (core), the integration tests and the benchmark binaries all enumerate
//! scenarios through [`ScenarioRegistry::standard`] instead of hard-wiring
//! problem constructors.

use crate::corner::Corner;
use crate::folded_cascode::folded_cascode;
use crate::ldo::ldo;
use crate::problem::SizingProblem;
use crate::switch::switch;
use crate::tech::{Backend, TechNode};
use crate::telescopic::telescopic;
use crate::varactor::varactor;
use crate::yield_problem::{YieldProblem, YieldSettings};
use crate::{bandgap, opamp2, opamp3};
use std::fmt;

/// Error returned by registry lookups and builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// No scenario registered under this name.
    UnknownScenario {
        /// The name that failed to resolve.
        name: String,
        /// Every registered scenario name, for the error message.
        available: Vec<String>,
    },
    /// The scenario exists but is not registered on this technology node.
    UnknownTech {
        /// The scenario that was found.
        scenario: String,
        /// The tech-node name that failed to resolve.
        tech: String,
        /// Nodes the scenario is registered on.
        available: Vec<String>,
    },
    /// The corner name was malformed (or a corner set was empty).
    BadCorner {
        /// The scenario that was found.
        scenario: String,
        /// Why the corner was rejected.
        reason: String,
    },
    /// A Monte-Carlo yield configuration was rejected (sample count or
    /// pass-rate threshold out of range).
    BadYield {
        /// The scenario that was found.
        scenario: String,
        /// Why the yield configuration was rejected.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownScenario { name, available } => {
                write!(
                    f,
                    "unknown scenario '{name}' (available: {})",
                    available.join(", ")
                )
            }
            ScenarioError::UnknownTech {
                scenario,
                tech,
                available,
            } => write!(
                f,
                "scenario '{scenario}' has no tech node '{tech}' (available: {})",
                available.join(", ")
            ),
            ScenarioError::BadCorner { scenario, reason } => {
                write!(f, "bad corner for scenario '{scenario}': {reason}")
            }
            ScenarioError::BadYield { scenario, reason } => {
                write!(f, "bad yield config for scenario '{scenario}': {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One registered sizing scenario: a circuit family, the technology nodes
/// it is characterised on, and its PVT corner sweep.
///
/// The spec preset (objective + constraint table) lives inside the circuit
/// constructor and is tech-node dependent (e.g. the op-amp gain bounds
/// relax at 40 nm); [`Scenario::build_at`] returns the fully specified
/// [`SizingProblem`].
pub struct Scenario {
    /// Registry key, e.g. `"folded_cascode"` (no tech suffix).
    pub name: &'static str,
    /// One-line description for `kato list` and docs.
    pub summary: &'static str,
    /// Tech nodes this scenario is registered on.
    pub tech_names: &'static [&'static str],
    /// Node used when the caller does not specify one.
    pub default_tech: &'static str,
    /// PVT corners the scenario is swept over.
    pub corners: Vec<Corner>,
    /// Device backend used when the caller does not select one. The op-amp
    /// family defaults to the square-law reference; the device-level
    /// `switch`/`varactor` families are LUT-native.
    pub default_backend: Backend,
    /// Monte-Carlo yield preset (sample count + pass-rate threshold) used
    /// when a caller requests yield mode without explicit numbers. The
    /// tech-node half of the preset lives on the card itself (each
    /// [`TechNode`] carries its own Pelgrom coefficients).
    pub yield_preset: YieldPreset,
    /// `true` when the circuit does not route its devices through the
    /// selectable backend, so it runs on [`Scenario::default_backend`]
    /// whatever a caller asks for. Only the bandgap sets it; the request
    /// resolver (`kato_serve`'s `SizingRequest::build_problem`) rejects
    /// any other backend for such a scenario.
    pub fixed_backend: bool,
    build: fn(TechNode) -> Box<dyn SizingProblem>,
}

/// Per-scenario Monte-Carlo yield defaults: how many mismatch samples a
/// yield estimate draws and the pass-rate the yield constraint demands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldPreset {
    /// Mismatch samples per candidate (sample 0 is the nominal draw).
    pub(crate) samples: usize,
    /// Pass-rate bound of the `yield ≥ threshold` constraint row.
    pub threshold: f64,
}

impl Default for YieldPreset {
    fn default() -> Self {
        YieldPreset {
            samples: 16,
            threshold: 0.7,
        }
    }
}

impl Scenario {
    /// Registers a new scenario from its parts. `build` receives the tech
    /// card already shifted to the requested corner.
    #[must_use]
    pub fn new(
        name: &'static str,
        summary: &'static str,
        tech_names: &'static [&'static str],
        default_tech: &'static str,
        corners: Vec<Corner>,
        build: fn(TechNode) -> Box<dyn SizingProblem>,
    ) -> Self {
        Scenario {
            name,
            summary,
            tech_names,
            default_tech,
            corners,
            default_backend: Backend::SquareLaw,
            yield_preset: YieldPreset::default(),
            fixed_backend: false,
            build,
        }
    }

    /// This scenario with a different default device backend.
    #[must_use]
    pub fn with_default_backend(mut self, backend: Backend) -> Self {
        self.default_backend = backend;
        self
    }

    /// Builds the problem on a named tech node at a corner; a `backend` of
    /// `None` uses the scenario's [`Scenario::default_backend`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownTech`] when `tech` is not registered for
    /// this scenario.
    pub fn build_at(
        &self,
        tech: &str,
        corner: &Corner,
        backend: Option<Backend>,
    ) -> Result<Box<dyn SizingProblem>, ScenarioError> {
        Ok((self.build)(self.card(tech, backend)?.at_corner(corner)))
    }

    /// The card of a registered tech node on `backend` (`None` = the
    /// scenario's default), at the nominal corner: the one tech-node
    /// resolution every builder goes through.
    pub(crate) fn card(
        &self,
        tech: &str,
        backend: Option<Backend>,
    ) -> Result<TechNode, ScenarioError> {
        let node = TechNode::by_name(tech)
            .filter(|_| self.tech_names.contains(&tech))
            .ok_or_else(|| ScenarioError::UnknownTech {
                scenario: self.name.to_string(),
                tech: tech.to_string(),
                available: self.tech_names.iter().map(ToString::to_string).collect(),
            })?;
        Ok(node.with_backend(backend.unwrap_or(self.default_backend)))
    }

    /// Builds the problem on its default tech node at the nominal corner.
    #[must_use]
    pub fn build_default(&self) -> Box<dyn SizingProblem> {
        self.build_at(self.default_tech, &Corner::tt(), None)
            .expect("default tech is always registered")
    }

    /// The raw problem constructor, for wrappers that rebuild the circuit
    /// on many prepared cards (one per corner × mismatch sample).
    #[must_use]
    pub fn builder(&self) -> fn(TechNode) -> Box<dyn SizingProblem> {
        self.build
    }

    /// Builds a [`YieldProblem`] over this scenario's corner sweep on a
    /// named tech node. `None` entries in `settings` fall back to the
    /// scenario's [`Scenario::yield_preset`]; the mismatch seed should be
    /// the caller's run seed so yield estimates share the run's
    /// reproducibility envelope.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioError`] for an unknown tech node, an empty
    /// corner set, or an out-of-range sample count / threshold.
    pub fn build_yield(
        &self,
        tech: &str,
        backend: Option<Backend>,
        settings: YieldSettings,
    ) -> Result<YieldProblem, ScenarioError> {
        YieldProblem::new(self, tech, backend, settings)
    }

    /// Parses a corner name for this scenario. Any well-formed corner is
    /// accepted — the registered sweep is the characterisation set, not a
    /// whitelist, so `"tt"`-style bare process names (27 °C) and
    /// off-sweep probe corners like `ss_85c` both build.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadCorner`] when the name is malformed.
    pub fn corner(&self, name: &str) -> Result<Corner, ScenarioError> {
        Corner::parse(name).map_err(|reason| ScenarioError::BadCorner {
            scenario: self.name.to_string(),
            reason,
        })
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("tech_names", &self.tech_names)
            .field("corners", &self.corners.len())
            .finish_non_exhaustive()
    }
}

/// The registry: an ordered collection of [`Scenario`]s addressable by
/// name.
#[derive(Debug)]
pub struct ScenarioRegistry {
    scenarios: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// The standard registry: every circuit in the workspace, each on both
    /// tech cards (except the bandgap, which the paper characterises at
    /// 180 nm only), each with the standard five-corner PVT sweep.
    #[must_use]
    pub fn standard() -> Self {
        let both: &'static [&'static str] = &["180nm", "40nm"];
        // Device-level families: cheap evaluations, tighter yield bar.
        let device_yield = YieldPreset {
            samples: 16,
            threshold: 0.8,
        };
        let scenarios = vec![
            Scenario::new(
                "opamp2",
                "Miller two-stage OTA: min I s.t. gain/PM/GBW (paper Eq. 15)",
                both,
                "180nm",
                Corner::standard_sweep(),
                |node| Box::new(opamp2(node)),
            ),
            Scenario::new(
                "opamp3",
                "nested-Miller three-stage OTA: min I s.t. gain/PM/GBW (paper Eq. 16)",
                both,
                "180nm",
                Corner::standard_sweep(),
                |node| Box::new(opamp3(node)),
            ),
            Scenario {
                // The bandgap runs a full −40…125 °C Newton sweep per
                // evaluation, so its yield preset draws fewer samples.
                yield_preset: YieldPreset {
                    samples: 8,
                    threshold: 0.6,
                },
                // Its MOS devices are solved inside the Newton DC solver,
                // which always uses the square-law model.
                fixed_backend: true,
                ..Scenario::new(
                    "bandgap",
                    "ΔVBE/R bandgap reference: min TC s.t. I/PSRR (paper Eq. 17)",
                    &["180nm"],
                    "180nm",
                    // Process corners only: the bandgap's figure of merit
                    // is already a −40…125 °C sweep internally, so ambient-
                    // temperature corners would just duplicate the TT rows.
                    Corner::process_sweep(),
                    |node| Box::new(bandgap(node)),
                )
            },
            Scenario::new(
                "folded_cascode",
                "single-stage folded-cascode OTA: min I s.t. gain/PM/GBW",
                both,
                "180nm",
                Corner::standard_sweep(),
                |node| Box::new(folded_cascode(node)),
            ),
            Scenario::new(
                "telescopic",
                "telescopic-cascode OTA: min I s.t. gain/PM/GBW (headroom-bound)",
                both,
                "180nm",
                Corner::standard_sweep(),
                |node| Box::new(telescopic(node)),
            ),
            Scenario::new(
                "ldo",
                "PMOS low-dropout regulator: min I_q s.t. dropout/PSRR/PM",
                both,
                "180nm",
                Corner::standard_sweep(),
                |node| Box::new(ldo(node)),
            ),
            // Device-level gm/ID-flow families: no AC macromodel, every
            // metric is a direct device-backend query, so they run on the
            // LUT backend by default.
            Scenario {
                yield_preset: device_yield,
                ..Scenario::new(
                    "switch",
                    "NMOS pass switch: min area s.t. Ron/Cgg (LUT-native)",
                    both,
                    "180nm",
                    Corner::standard_sweep(),
                    |node| Box::new(switch(node)),
                )
                .with_default_backend(Backend::Lut)
            },
            Scenario {
                yield_preset: device_yield,
                ..Scenario::new(
                    "varactor",
                    "MOS varactor: max C-tuning ratio s.t. Cmax/Q (LUT-native)",
                    both,
                    "180nm",
                    Corner::standard_sweep(),
                    |node| Box::new(varactor(node)),
                )
                .with_default_backend(Backend::Lut)
            },
        ];
        ScenarioRegistry { scenarios }
    }

    /// Registered scenario names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.scenarios.iter().map(|s| s.name).collect()
    }

    /// All scenarios, in registration order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Looks a scenario up by name.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownScenario`] listing every registered name.
    pub fn get(&self, name: &str) -> Result<&Scenario, ScenarioError> {
        self.scenarios
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| ScenarioError::UnknownScenario {
                name: name.to_string(),
                available: self.names().iter().map(ToString::to_string).collect(),
            })
    }

    /// Convenience: lookup + build in one call. `tech`/`corner` of `None`
    /// use the scenario's default tech node and the nominal TT corner.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioError`] from the lookup, tech resolution or corner
    /// parse.
    pub fn build(
        &self,
        name: &str,
        tech: Option<&str>,
        corner: Option<&str>,
    ) -> Result<Box<dyn SizingProblem>, ScenarioError> {
        let scenario = self.get(name)?;
        let corner = match corner {
            Some(c) => scenario.corner(c)?,
            None => Corner::tt(),
        };
        scenario.build_at(tech.unwrap_or(scenario.default_tech), &corner, None)
    }
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        ScenarioRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_at_least_six_scenarios() {
        let reg = ScenarioRegistry::standard();
        assert!(reg.names().len() >= 6, "{:?}", reg.names());
        for expected in [
            "opamp2",
            "opamp3",
            "bandgap",
            "folded_cascode",
            "telescopic",
            "ldo",
        ] {
            assert!(reg.names().contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn unknown_names_error_with_available_list() {
        let reg = ScenarioRegistry::standard();
        let err = reg.get("opamp9").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("opamp9") && msg.contains("opamp2"), "{msg}");

        let err = reg
            .build("bandgap", Some("40nm"), None)
            .map(|p| p.name())
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownTech { .. }), "{err}");

        let err = reg
            .build("ldo", None, Some("sf_27c"))
            .map(|p| p.name())
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BadCorner { .. }), "{err}");
    }

    #[test]
    fn build_produces_named_problems_on_both_techs() {
        let reg = ScenarioRegistry::standard();
        let p = reg.build("ldo", None, None).unwrap();
        assert_eq!(p.name(), "ldo_180nm");
        let p = reg.build("ldo", Some("40nm"), None).unwrap();
        assert_eq!(p.name(), "ldo_40nm");
    }

    #[test]
    fn corner_build_changes_the_evaluation() {
        let reg = ScenarioRegistry::standard();
        let nom = reg.build("opamp2", None, None).unwrap();
        let ss_hot = reg.build("opamp2", None, Some("ss_125c")).unwrap();
        let x = vec![0.5; nom.dim()];
        assert_ne!(
            nom.evaluate(&x),
            ss_hot.evaluate(&x),
            "corner must shift the physics"
        );
    }

    #[test]
    fn every_scenario_default_build_evaluates_finite_metrics() {
        let reg = ScenarioRegistry::standard();
        for s in reg.scenarios() {
            let p = s.build_default();
            let m = p.evaluate(&p.expert_design());
            assert!(
                m.values().iter().all(|v| v.is_finite()),
                "{}: {m}",
                p.name()
            );
        }
    }
}
