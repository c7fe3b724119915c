//! The `katod` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per request, in order — the
//! shape that works identically over stdin/stdout, a Unix socket, or a
//! file of queued jobs. A request names a registered scenario and
//! optionally overrides tech node, corner, spec bounds, seed and budget:
//!
//! ```json
//! {"id":"job-1","scenario":"opamp2","tech":"40nm","corner":"tt",
//!  "specs":{"gain_db":55.0},"seed":11,"budget":40}
//! ```
//!
//! Adding `"yield_samples": 16` switches the job to Monte-Carlo yield
//! optimisation: each simulated candidate is scored by its pass-rate over
//! 16 Pelgrom mismatch samples (× the requested corner set), and a
//! `yield ≥ threshold` constraint joins the spec table (threshold from the
//! scenario preset, or a `"yield"` entry in `specs`). Yield runs are
//! cached under a key with a `|y<n>` suffix — nominal keys are unchanged,
//! so caches written before this field existed stay valid — and are *not*
//! archived to the knowledge bank (their metric vector differs from
//! nominal archives).
//!
//! Unknown top-level keys are rejected, and so is a key repeated at the
//! top level or inside `specs` (a typo'd field silently ignored is a wrong
//! answer delivered with confidence). Responses carry the run's
//! outcome plus serving metadata — whether the result was a cache hit and
//! which bank archive (if any) warm-started it.

use crate::bank::SourceChoice;
use crate::json::Json;
use kato::{RunHistory, WorstCaseProblem};
use kato_circuits::{Backend, OverriddenProblem, ScenarioRegistry, SizingProblem, YieldSettings};
use std::collections::HashSet;

/// Top-level request keys the daemon understands.
const ALLOWED_KEYS: &[&str] = &[
    "id",
    "scenario",
    "tech",
    "corner",
    "specs",
    "seed",
    "budget",
    "deadline_ms",
    "backend",
    "yield_samples",
];

/// Default simulation budget when the request omits one.
pub(crate) const DEFAULT_BUDGET: usize = 40;
/// Default seed when the request omits one.
pub(crate) const DEFAULT_SEED: u64 = 11;
/// Budgets above this are rejected as misconfigured rather than queued.
pub(crate) const MAX_BUDGET: usize = 5000;
/// Monte-Carlo sample counts above this are rejected — each sample costs a
/// full corner sweep per simulation, so a typo'd count must not queue days
/// of work.
pub(crate) const MAX_YIELD_SAMPLES: usize = 1024;

/// A parsed sizing request.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingRequest {
    /// Caller-chosen correlation id, echoed in the response (may be empty).
    pub id: String,
    /// Registered scenario name, e.g. `opamp2`.
    pub scenario: String,
    /// Tech node; `None` uses the scenario's default.
    pub tech: Option<String>,
    /// Corner name (`"tt"` default), or `"worst"` for worst-case-over-the-
    /// registered-sweep optimisation.
    pub corner: String,
    /// Spec-bound overrides as `(metric, bound)` pairs in request order.
    pub overrides: Vec<(String, f64)>,
    /// Optimiser seed.
    pub seed: u64,
    /// Total simulation budget.
    pub budget: usize,
    /// Wall-clock deadline in milliseconds; when set, the run returns its
    /// best-so-far (marked `degraded`) instead of overrunning.
    pub deadline_ms: Option<u64>,
    /// Device backend override (`"square_law"` or `"lut"`); `None` uses
    /// the scenario's default. Excluded from nothing: it is part of the
    /// cache key, because the two backends produce (slightly) different
    /// metrics and therefore different run traces. A scenario registered
    /// with a fixed backend (the bandgap) rejects any other.
    pub backend: Option<Backend>,
    /// Monte-Carlo mismatch sample count: when set, the run optimises the
    /// scenario's [`kato_circuits::YieldProblem`] (pass-rate over this many
    /// Pelgrom mismatch samples × the requested corner set) instead of the
    /// nominal circuit. The yield threshold comes from the scenario's
    /// preset, or from a `"yield"` entry in `specs`.
    pub yield_samples: Option<usize>,
}

impl SizingRequest {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A message describing the malformed JSON, unknown key, or invalid
    /// field value.
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = Json::parse(line)?;
        let pairs = doc.as_obj().ok_or("request must be a JSON object")?;
        let mut seen = HashSet::new();
        for (key, _) in pairs {
            if !ALLOWED_KEYS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown request key '{key}' (allowed: {})",
                    ALLOWED_KEYS.join(", ")
                ));
            }
            if !seen.insert(key) {
                return Err(format!("duplicate request key '{key}'"));
            }
        }
        let scenario = doc
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("missing required string field 'scenario'")?
            .to_string();
        let id = doc
            .get("id")
            .map(|v| v.as_str().ok_or("'id' must be a string"))
            .transpose()?
            .unwrap_or("")
            .to_string();
        let tech = doc
            .get("tech")
            .map(|v| v.as_str().ok_or("'tech' must be a string"))
            .transpose()?
            .map(str::to_string);
        let corner = doc
            .get("corner")
            .map(|v| v.as_str().ok_or("'corner' must be a string"))
            .transpose()?
            .unwrap_or("tt")
            .to_string();
        let seed = match doc.get("seed") {
            None => DEFAULT_SEED,
            Some(v) => v.as_u64().ok_or("'seed' must be a non-negative integer")?,
        };
        let budget = match doc.get("budget") {
            None => DEFAULT_BUDGET,
            Some(v) => v.as_u64().ok_or("'budget' must be a positive integer")? as usize,
        };
        if !(2..=MAX_BUDGET).contains(&budget) {
            return Err(format!(
                "'budget' must be in 2..={MAX_BUDGET}, got {budget}"
            ));
        }
        let deadline_ms = doc
            .get("deadline_ms")
            .map(|v| {
                v.as_u64()
                    .filter(|&ms| ms > 0)
                    .ok_or("'deadline_ms' must be a positive integer")
            })
            .transpose()?;
        let backend = doc
            .get("backend")
            .map(|v| {
                v.as_str()
                    .and_then(Backend::parse)
                    .ok_or("'backend' must be \"square_law\" or \"lut\"")
            })
            .transpose()?;
        let yield_samples = doc
            .get("yield_samples")
            .map(|v| {
                v.as_u64()
                    .map(|n| n as usize)
                    .filter(|&n| (1..=MAX_YIELD_SAMPLES).contains(&n))
                    .ok_or(format!(
                        "'yield_samples' must be in 1..={MAX_YIELD_SAMPLES}"
                    ))
            })
            .transpose()?;
        let mut overrides = Vec::new();
        if let Some(specs) = doc.get("specs") {
            let entries = specs.as_obj().ok_or("'specs' must be an object")?;
            let mut seen = HashSet::new();
            for (metric, bound) in entries {
                if !seen.insert(metric) {
                    return Err(format!("duplicate spec override '{metric}'"));
                }
                let v = bound
                    .as_f64()
                    .ok_or_else(|| format!("spec override '{metric}' must be a number"))?;
                overrides.push((metric.clone(), v));
            }
        }
        Ok(SizingRequest {
            id,
            scenario,
            tech,
            corner,
            overrides,
            seed,
            budget,
            deadline_ms,
            backend,
            yield_samples,
        })
    }

    /// The request's cache/dedupe identity given its resolved tech node:
    /// everything the optimiser's output depends on, with overrides sorted
    /// by metric name so spelling order doesn't defeat dedupe. The `id` is
    /// deliberately excluded, and so is `deadline_ms` — a deadline shapes
    /// *when* a run stops, not what the full run would compute, and a
    /// degraded result is never stored (see the daemon), so a later
    /// undeadlined request must map to the same key to reuse the full run.
    /// The device backend is excluded from nothing: it changes every
    /// simulated metric, so it is part of the key (`default` when the
    /// request defers to the scenario). The daemon keys a request that
    /// names its scenario's default backend as one that omits it.
    #[must_use]
    pub fn cache_key(&self, resolved_tech: &str) -> String {
        let mut specs: Vec<&(String, f64)> = self.overrides.iter().collect();
        specs.sort_by(|a, b| a.0.cmp(&b.0));
        let specs: Vec<String> = specs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let base = format!(
            "{}|{}|{}|{}|{}|{}|{}",
            self.scenario,
            resolved_tech,
            self.corner,
            specs.join(","),
            self.seed,
            self.budget,
            self.backend.map_or("default", Backend::name)
        );
        // The yield segment is appended only when present, so keys of
        // nominal requests are byte-identical to what older daemons wrote —
        // a persisted cache survives the protocol extension.
        match self.yield_samples {
            None => base,
            Some(n) => format!("{base}|y{n}"),
        }
    }

    /// Resolves the request against the registry into a ready-to-optimise
    /// problem plus the resolved tech-node name. This is the one resolver
    /// of the (scenario, tech, corner, backend, yield samples) tuple: the
    /// daemon calls it per request, and `kato run` per seed.
    ///
    /// `corner: "worst"` builds the scenario's [`WorstCaseProblem`] over
    /// its registered sweep; any other corner name builds the single-corner
    /// problem. Spec overrides wrap the result in an [`OverriddenProblem`].
    ///
    /// With `yield_samples` set, the base problem is instead the scenario's
    /// [`kato_circuits::YieldProblem`]: `corner: "worst"` sweeps the
    /// scenario's registered corners per mismatch sample, any other corner
    /// name estimates yield at that single corner. A `"yield"` entry in
    /// `specs` is routed into the yield *threshold* rather than a plain
    /// spec-row edit, so the estimator's early-abort censoring always
    /// agrees with the feasibility classification.
    ///
    /// A scenario registered with [`kato_circuits::Scenario::fixed_backend`]
    /// accepts no backend but its default: a run that ignores the request
    /// must not be labelled and cached as if it honoured it.
    ///
    /// # Errors
    ///
    /// A message for unknown scenario/tech/corner, a backend the scenario
    /// cannot run on, or a bad override.
    pub fn build_problem(
        &self,
        registry: &ScenarioRegistry,
    ) -> Result<(Box<dyn SizingProblem>, String), String> {
        let scenario = registry.get(&self.scenario).map_err(|e| e.to_string())?;
        if scenario.fixed_backend && self.backend.is_some_and(|b| b != scenario.default_backend) {
            return Err(format!(
                "scenario '{}' has no device-backend choice: it always runs on {}",
                scenario.name,
                scenario.default_backend.name()
            ));
        }
        let tech = self
            .tech
            .as_deref()
            .unwrap_or(scenario.default_tech)
            .to_string();
        let mut overrides = self.overrides.clone();
        let base: Box<dyn SizingProblem> = if let Some(samples) = self.yield_samples {
            let threshold = match overrides.iter().position(|(k, _)| k == "yield") {
                Some(i) => {
                    let (_, t) = overrides.remove(i);
                    if !(t > 0.0 && t <= 1.0) {
                        return Err(format!("'yield' override {t} outside (0, 1]"));
                    }
                    t
                }
                None => scenario.yield_preset.threshold,
            };
            let corners = if self.corner == "worst" {
                None
            } else {
                Some(vec![scenario
                    .corner(&self.corner)
                    .map_err(|e| e.to_string())?])
            };
            Box::new(
                scenario
                    .build_yield(
                        &tech,
                        self.backend,
                        YieldSettings {
                            samples,
                            threshold,
                            seed: self.seed,
                            early_abort: true,
                            corners,
                        },
                    )
                    .map_err(|e| e.to_string())?,
            )
        } else if self.corner == "worst" {
            Box::new(
                WorstCaseProblem::with_backend(scenario, &tech, self.backend)
                    .map_err(|e| e.to_string())?,
            )
        } else {
            let corner = scenario.corner(&self.corner).map_err(|e| e.to_string())?;
            scenario
                .build_at(&tech, &corner, self.backend)
                .map_err(|e| e.to_string())?
        };
        let problem = OverriddenProblem::new(base, &overrides)?;
        Ok((Box::new(problem), tech))
    }
}

/// First simulation count at which a feasible design appeared, if any.
#[must_use]
pub fn sims_to_feasible(history: &RunHistory) -> Option<usize> {
    history.evals.iter().position(|e| e.feasible).map(|i| i + 1)
}

/// The `warm_start` object of a run, as both `katod` responses and
/// `kato run` results write it: the banked source the run was warm-started
/// from, or `null` for a cold start.
#[must_use]
pub fn warm_start_json(warm: Option<&SourceChoice>) -> Json {
    match warm {
        None => Json::Null,
        Some(w) => Json::obj(vec![
            ("source", Json::str(&w.label)),
            ("tech", Json::str(&w.tech)),
            ("same_tech", Json::Bool(w.same_tech)),
            ("alignment", Json::Num(w.alignment)),
            ("n_evals", Json::Num(w.n_evals as f64)),
        ]),
    }
}

/// Builds the success-response document for a completed (or replayed) run.
///
/// `degraded` marks a run cut short by its deadline
/// ([`kato::Kato::with_deadline`], hit before the simulation budget was
/// spent): still `status: "ok"`, but the caller is told the best-so-far
/// came from a truncated search.
#[must_use]
pub fn response_json(
    request: &SizingRequest,
    resolved_tech: &str,
    problem: &dyn SizingProblem,
    history: &RunHistory,
    cache_hit: bool,
    degraded: bool,
    warm: Option<&SourceChoice>,
) -> Json {
    let best_json = match history.best() {
        None => Json::Null,
        Some(best) => {
            let metrics: Vec<(String, Json)> = problem
                .metric_names()
                .iter()
                .zip(best.metrics.values())
                .map(|(name, &v)| ((*name).to_string(), Json::Num(v)))
                .collect();
            Json::obj(vec![
                ("x", Json::nums(&best.x)),
                ("score", Json::Num(best.score)),
                ("metrics", Json::Obj(metrics)),
            ])
        }
    };
    let feasible = history.best().is_some_and(|b| b.feasible);
    Json::obj(vec![
        ("id", Json::str(&request.id)),
        ("status", Json::str("ok")),
        ("scenario", Json::str(&request.scenario)),
        ("tech", Json::str(resolved_tech)),
        ("corner", Json::str(&request.corner)),
        (
            "backend",
            Json::str(request.backend.map_or("default", Backend::name)),
        ),
        ("seed", Json::Num(request.seed as f64)),
        ("budget", Json::Num(request.budget as f64)),
        (
            "yield_samples",
            request
                .yield_samples
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("cache_hit", Json::Bool(cache_hit)),
        ("degraded", Json::Bool(degraded)),
        ("warm_start", warm_start_json(warm)),
        ("n_evals", Json::Num(history.len() as f64)),
        ("feasible", Json::Bool(feasible)),
        (
            "sims_to_feasible",
            sims_to_feasible(history).map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("best", best_json),
    ])
}

/// Builds the error-response document for a rejected request.
#[must_use]
pub(crate) fn error_json(id: &str, message: &str) -> Json {
    Json::obj(vec![
        ("id", Json::str(id)),
        ("status", Json::str("error")),
        ("error", Json::str(message)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_start_json_names_the_source_or_is_null() {
        let choice = SourceChoice {
            label: "opamp2_180nm".into(),
            tech: "180nm".into(),
            same_tech: false,
            alignment: -0.25,
            n_evals: 16,
        };
        assert_eq!(
            warm_start_json(Some(&choice)).to_string(),
            r#"{"source":"opamp2_180nm","tech":"180nm","same_tech":false,"alignment":-0.25,"n_evals":16}"#
        );
        assert!(warm_start_json(None).is_null());
    }

    #[test]
    fn parse_fills_defaults() {
        let req = SizingRequest::parse(r#"{"scenario":"opamp2"}"#).unwrap();
        assert_eq!(req.scenario, "opamp2");
        assert_eq!(req.id, "");
        assert_eq!(req.tech, None);
        assert_eq!(req.corner, "tt");
        assert_eq!(req.seed, DEFAULT_SEED);
        assert_eq!(req.budget, DEFAULT_BUDGET);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.backend, None);
        assert!(req.overrides.is_empty());
    }

    #[test]
    fn backend_parses_keys_and_builds() {
        let req = SizingRequest::parse(r#"{"scenario":"switch","backend":"square_law"}"#).unwrap();
        assert_eq!(req.backend, Some(Backend::SquareLaw));
        let lut = SizingRequest::parse(r#"{"scenario":"opamp2","backend":"lut"}"#).unwrap();
        assert_eq!(lut.backend, Some(Backend::Lut));
        let err = SizingRequest::parse(r#"{"scenario":"opamp2","backend":"spice"}"#).unwrap_err();
        assert!(err.contains("backend"), "{err}");
        // The backend is part of the cache key — never collapsed away.
        let default = SizingRequest::parse(r#"{"scenario":"opamp2"}"#).unwrap();
        assert_ne!(lut.cache_key("180nm"), default.cache_key("180nm"));
        assert!(lut.cache_key("180nm").ends_with("|lut"));
        assert!(default.cache_key("180nm").ends_with("|default"));
        // And it resolves through the registry, for single- and worst-corner.
        let reg = ScenarioRegistry::standard();
        let (p, _) = req.build_problem(&reg).unwrap();
        assert_eq!(p.name(), "switch_180nm");
        let worst = SizingRequest::parse(
            r#"{"scenario":"switch","corner":"worst","backend":"square_law"}"#,
        )
        .unwrap();
        let (pw, _) = worst.build_problem(&reg).unwrap();
        assert!(pw.name().contains("worstcase"));
        // Forced square-law differs from the switch's LUT default.
        let (pd, _) = SizingRequest::parse(r#"{"scenario":"switch"}"#)
            .unwrap()
            .build_problem(&reg)
            .unwrap();
        let x = pd.expert_design();
        assert_ne!(p.evaluate(&x), pd.evaluate(&x));
    }

    #[test]
    fn parse_reads_every_field() {
        let req = SizingRequest::parse(
            r#"{"id":"j1","scenario":"ldo","tech":"40nm","corner":"ss_125c",
                "specs":{"psrr_db":45.0,"pm_deg":50.0},"seed":7,"budget":25,
                "deadline_ms":1500}"#,
        )
        .unwrap();
        assert_eq!(req.id, "j1");
        assert_eq!(req.tech.as_deref(), Some("40nm"));
        assert_eq!(req.corner, "ss_125c");
        assert_eq!(req.seed, 7);
        assert_eq!(req.budget, 25);
        assert_eq!(req.deadline_ms, Some(1500));
        assert_eq!(
            req.overrides,
            vec![("psrr_db".to_string(), 45.0), ("pm_deg".to_string(), 50.0)]
        );
    }

    #[test]
    fn parse_rejects_bad_requests() {
        for (line, needle) in [
            ("[1,2]", "object"),
            (r#"{"tech":"40nm"}"#, "scenario"),
            (r#"{"scenario":"ldo","bugdet":9}"#, "unknown request key"),
            (r#"{"scenario":"ldo","budget":1}"#, "budget"),
            (r#"{"scenario":"ldo","seed":-3}"#, "seed"),
            (r#"{"scenario":"ldo","seed":18446744073709551616}"#, "seed"),
            (r#"{"scenario":"ldo","specs":{"pm_deg":"high"}}"#, "pm_deg"),
            (r#"{"scenario":"ldo","deadline_ms":0}"#, "deadline_ms"),
            (r#"{"scenario":"ldo","deadline_ms":-5}"#, "deadline_ms"),
            ("not json", "byte"),
        ] {
            let err = SizingRequest::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn yield_requests_parse_build_and_key_with_suffix() {
        let req =
            SizingRequest::parse(r#"{"scenario":"opamp2","yield_samples":8,"seed":5}"#).unwrap();
        assert_eq!(req.yield_samples, Some(8));
        // Nominal keys are byte-identical to the pre-yield format; yield
        // keys append the |y<n> segment.
        let nominal = SizingRequest::parse(r#"{"scenario":"opamp2","seed":5}"#).unwrap();
        assert_eq!(nominal.yield_samples, None);
        assert_eq!(
            format!("{}|y8", nominal.cache_key("180nm")),
            req.cache_key("180nm")
        );

        let reg = ScenarioRegistry::standard();
        let (p, tech) = req.build_problem(&reg).unwrap();
        assert_eq!(tech, "180nm");
        assert!(p.name().contains("yield8"), "{}", p.name());
        assert_eq!(p.metric_names().last(), Some(&"yield"));
        // Default corner "tt" → a single-corner yield estimate; "worst"
        // sweeps the scenario's registered corners per sample.
        let worst =
            SizingRequest::parse(r#"{"scenario":"opamp2","yield_samples":4,"corner":"worst"}"#)
                .unwrap();
        assert!(worst.build_problem(&reg).is_ok());

        for bad in [
            r#"{"scenario":"opamp2","yield_samples":0}"#,
            r#"{"scenario":"opamp2","yield_samples":4096}"#,
            r#"{"scenario":"opamp2","yield_samples":"many"}"#,
        ] {
            assert!(
                SizingRequest::parse(bad)
                    .unwrap_err()
                    .contains("yield_samples"),
                "{bad}"
            );
        }
    }

    #[test]
    fn yield_override_becomes_the_threshold_not_a_spec_edit() {
        let reg = ScenarioRegistry::standard();
        let req = SizingRequest::parse(
            r#"{"scenario":"opamp2","yield_samples":4,"specs":{"yield":0.25}}"#,
        )
        .unwrap();
        let (p, _) = req.build_problem(&reg).unwrap();
        // Routed into the YieldProblem threshold: the yield spec row bound
        // must be the override, and the name must NOT be the _custom form
        // an OverriddenProblem spec edit would produce.
        let yield_idx = p.metric_names().len() - 1;
        let bound = p.specs().iter().find_map(|s| match s.kind {
            kato_circuits::SpecKind::GreaterEq(b) if s.metric == yield_idx => Some(b),
            _ => None,
        });
        assert_eq!(bound, Some(0.25));
        assert!(!p.name().contains("custom"), "{}", p.name());
        // Out-of-range thresholds are rejected at build time.
        let bad = SizingRequest::parse(
            r#"{"scenario":"opamp2","yield_samples":4,"specs":{"yield":1.5}}"#,
        )
        .unwrap();
        let err = bad
            .build_problem(&reg)
            .err()
            .expect("threshold 1.5 must be rejected");
        assert!(err.contains("yield"), "{err}");
        // Without yield_samples, a "yield" spec names no metric → error.
        let stray = SizingRequest::parse(r#"{"scenario":"opamp2","specs":{"yield":0.5}}"#).unwrap();
        assert!(stray.build_problem(&reg).is_err());
    }

    #[test]
    fn cache_key_normalises_override_order_and_ignores_id() {
        let a = SizingRequest::parse(
            r#"{"id":"a","scenario":"ldo","specs":{"pm_deg":50.0,"psrr_db":45.0}}"#,
        )
        .unwrap();
        let b = SizingRequest::parse(
            r#"{"id":"b","scenario":"ldo","specs":{"psrr_db":45.0,"pm_deg":50.0}}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key("180nm"), b.cache_key("180nm"));
        assert_ne!(a.cache_key("180nm"), a.cache_key("40nm"));
        // A deadline doesn't change what the full run computes → same key.
        let deadlined =
            SizingRequest::parse(r#"{"id":"a","scenario":"ldo","deadline_ms":100,"specs":{"pm_deg":50.0,"psrr_db":45.0}}"#)
                .unwrap();
        assert_eq!(a.cache_key("180nm"), deadlined.cache_key("180nm"));
        let c = SizingRequest::parse(r#"{"scenario":"ldo","seed":12}"#).unwrap();
        assert_ne!(a.cache_key("180nm"), c.cache_key("180nm"));
    }

    #[test]
    fn build_problem_resolves_tech_corner_and_overrides() {
        let reg = ScenarioRegistry::standard();
        let req = SizingRequest::parse(r#"{"scenario":"opamp2"}"#).unwrap();
        let (p, tech) = req.build_problem(&reg).unwrap();
        assert_eq!(tech, "180nm");
        assert_eq!(p.name(), "opamp2_180nm");

        let req =
            SizingRequest::parse(r#"{"scenario":"opamp2","tech":"40nm","specs":{"gain_db":55.0}}"#)
                .unwrap();
        let (p, tech) = req.build_problem(&reg).unwrap();
        assert_eq!(tech, "40nm");
        assert!(p.name().contains("custom"), "{}", p.name());

        let req = SizingRequest::parse(r#"{"scenario":"opamp2","corner":"worst"}"#).unwrap();
        let (p, _) = req.build_problem(&reg).unwrap();
        assert!(p.name().contains("worst"), "{}", p.name());

        for bad in [
            r#"{"scenario":"nope"}"#,
            r#"{"scenario":"bandgap","tech":"40nm"}"#,
            r#"{"scenario":"opamp2","corner":"zz_12c"}"#,
            r#"{"scenario":"opamp2","specs":{"nope":1.0}}"#,
        ] {
            let req = SizingRequest::parse(bad).unwrap();
            assert!(req.build_problem(&reg).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_fixed_backend_scenario_rejects_any_other_backend() {
        // The bandgap's devices never go through the selectable backend,
        // so a LUT request would run square-law under a LUT label.
        let reg = ScenarioRegistry::standard();
        let req = SizingRequest::parse(r#"{"scenario":"bandgap","backend":"lut"}"#).unwrap();
        let err = req.build_problem(&reg).map(|(p, _)| p.name()).unwrap_err();
        assert!(
            err.contains("'bandgap'") && err.contains("square_law"),
            "{err}"
        );
        for ok in [
            r#"{"scenario":"bandgap"}"#,
            r#"{"scenario":"bandgap","backend":"square_law"}"#,
            r#"{"scenario":"opamp2","backend":"lut"}"#,
        ] {
            let req = SizingRequest::parse(ok).unwrap();
            assert!(req.build_problem(&reg).is_ok(), "{ok}");
        }
    }

    #[test]
    fn responses_echo_request_and_outcome() {
        let reg = ScenarioRegistry::standard();
        let req = SizingRequest::parse(r#"{"id":"r1","scenario":"opamp2","budget":4}"#).unwrap();
        let (problem, tech) = req.build_problem(&reg).unwrap();
        let mut h = RunHistory::new(&problem.name(), "KATO", req.seed);
        h.evaluate_and_push(
            &*problem,
            &kato::Mode::Constrained,
            vec![0.5; problem.dim()],
        );
        let doc = response_json(&req, &tech, &*problem, &h, false, true, None);
        assert_eq!(doc.get("id").unwrap().as_str(), Some("r1"));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("n_evals").unwrap().as_f64(), Some(1.0));
        assert!(doc.get("warm_start").unwrap().is_null());
        // Feasibility flag and best agree with the history.
        let feasible = doc.get("feasible").unwrap().as_bool().unwrap();
        assert_eq!(feasible, h.best().map(|b| b.feasible).unwrap_or(false));
        if h.best().is_none() {
            assert!(doc.get("best").unwrap().is_null());
            assert!(doc.get("sims_to_feasible").unwrap().is_null());
        } else {
            assert!(doc.get("best").unwrap().get("metrics").is_some());
        }
        // And the line parses back.
        assert!(Json::parse(&doc.to_string()).is_ok());

        let err = error_json("r2", "unknown scenario 'x'");
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(err.get("id").unwrap().as_str(), Some("r2"));
    }
}
