//! The request loop behind `katod`: parse → cache → (probe → align →
//! resume) or cold run → persist → respond.
//!
//! The daemon is deliberately synchronous at its edges — newline-delimited
//! JSON in, newline-delimited JSON out — and concurrent in the middle.
//! There is one request path, [`Daemon::handle_batch`]; a single line
//! ([`Daemon::handle_line`]) is a batch of one. It resolves each line once,
//! dedupes identical requests by cache key and deadline, runs the distinct
//! jobs over the [`kato_par`] pool, then applies bank and cache writes
//! sequentially so the persistent state never races.
//!
//! # Fault tolerance
//!
//! The serving loop survives its jobs:
//!
//! * a job that **panics** (a simulator crash, exercised by the daemon's
//!   `sim_panic` [`Failpoints`]) answers with an error
//!   response carrying that request's `id`; every other job of its batch
//!   still returns its result, and the daemon keeps serving;
//! * a request with `deadline_ms` runs under a cooperative deadline
//!   ([`Kato::with_deadline`]) and answers best-so-far with
//!   `"degraded": true` when the deadline fires — degraded traces are
//!   *not* persisted to the bank or cache, so a later request without the
//!   deadline recomputes the full run;
//! * a bank append that fails after its write retries is counted
//!   (`bank.append_errors` in health); the run is still cached and
//!   answered;
//! * `{"op": "health"}` reports bank/cache/served-job status without
//!   spending simulations.

use crate::bank::{Bank, SourceChoice};
use crate::cache::ResultCache;
use crate::faults::Failpoints;
use crate::json::Json;
use crate::protocol::{error_json, response_json, SizingRequest};
use kato::{BoSettings, Kato, Mode, RunHistory};
use kato_circuits::{random_design, Metrics, ScenarioRegistry, SizingProblem, Spec, VarSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, Write};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Number of probe simulations spent before querying the bank: half the
/// cold init, floor 4 — enough target evidence to alignment-score archives
/// while leaving most of the init budget to the model-guided loop.
#[must_use]
pub fn warm_probe_size(n_init: usize) -> usize {
    (n_init / 2).max(4)
}

/// Optimiser settings for a request: the quick profile with `n_init`
/// clamped so tiny budgets still get at least one BO iteration.
#[must_use]
pub fn request_settings(budget: usize, seed: u64) -> BoSettings {
    let mut s = BoSettings::quick(budget, seed);
    s.n_init = s.n_init.min(budget.saturating_sub(1)).max(1);
    s
}

/// Wraps a problem so the `sim_panic` failpoint can crash its evaluations:
/// armed with a request seed (`sim_panic=5`), every evaluation of the job
/// running under that seed panics — deterministic regardless of how a
/// batch interleaves across worker threads.
struct FaultProblem<'a> {
    inner: &'a dyn SizingProblem,
    seed: u64,
    failpoints: &'a Failpoints,
}

impl SizingProblem for FaultProblem<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn variables(&self) -> &[VarSpec] {
        self.inner.variables()
    }
    fn metric_names(&self) -> &[&'static str] {
        self.inner.metric_names()
    }
    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }
    fn evaluate(&self, x: &[f64]) -> Metrics {
        assert!(
            !self.failpoints.matches("sim_panic", self.seed),
            "injected simulator panic (sim_panic={})",
            self.seed
        );
        self.inner.evaluate(x)
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        // Forward to the inner batch path (the shim must not serialise the
        // population); the failpoint check still guards every batch.
        assert!(
            !self.failpoints.matches("sim_panic", self.seed),
            "injected simulator panic (sim_panic={})",
            self.seed
        );
        self.inner.evaluate_batch(xs)
    }
    fn expert_design(&self) -> Vec<f64> {
        self.inner.expert_design()
    }
    fn streaming_hint(&self) -> bool {
        // The failpoint shim never changes evaluation cost; keep the inner
        // problem's scheduling preference (yield problems stream).
        self.inner.streaming_hint()
    }
}

/// Runs one sizing job, warm-starting from `bank` when it holds archives
/// for the scenario.
///
/// The warm path spends [`warm_probe_size`] random probe simulations on
/// the target, asks the bank for the best-aligned archive
/// ([`Bank::select_source`]), attaches it as the transfer source and
/// *resumes* from the probe — so the probe counts toward the budget and a
/// warm start never simulates more than a cold one. With no bank, no
/// archives, or a bank miss, it degrades to the cold path (or a source-less
/// resume of the probe).
///
/// `deadline` is honoured cooperatively: between simulations, including
/// before the probe — a passed deadline returns best-so-far instead of
/// overrunning.
///
/// Shared by the daemon and the `kato run --bank` CLI path.
#[must_use]
pub fn run_with_bank(
    bank: Option<&Bank>,
    scenario: &str,
    tech: &str,
    problem: &dyn SizingProblem,
    settings: BoSettings,
    deadline: Option<Instant>,
) -> (RunHistory, Option<SourceChoice>) {
    let kato = Kato::new(settings.clone()).with_deadline(deadline);
    let warm_bank = bank.filter(|b| b.has_candidates(scenario));
    let Some(bank) = warm_bank else {
        return (kato.run(problem, Mode::Constrained), None);
    };
    let probe_n = warm_probe_size(settings.n_init).min(settings.budget);
    let mut probe = RunHistory::new(&problem.name(), "KATO", settings.seed);
    let mut rng = StdRng::seed_from_u64(settings.seed);
    // The probe is one batched population (sharded over the pool): drawing
    // the designs up front consumes the RNG exactly as the scalar loop did.
    if probe_n > 0 && deadline.is_none_or(|d| Instant::now() < d) {
        let designs: Vec<Vec<f64>> = (0..probe_n)
            .map(|_| random_design(problem.dim(), &mut rng))
            .collect();
        probe.evaluate_and_push_batch(problem, &Mode::Constrained, designs);
    }
    match bank.select_source(scenario, tech, problem.specs(), &probe) {
        Some((source, choice)) => {
            let label = format!("KATO+bank[{}]", choice.label);
            let kato = kato.with_source(source).with_label(&label);
            (kato.resume(problem, Mode::Constrained, probe), Some(choice))
        }
        None => (kato.resume(problem, Mode::Constrained, probe), None),
    }
}

/// Runs one request's job through [`run_with_bank`] with the request's
/// settings and deadline. Yield jobs carry an extra metric, so nominal
/// bank archives don't align with them (and vice versa): they run
/// bankless. When `sim_panic` is armed, evaluations go through the
/// failpoint check; disarmed serving takes the zero-overhead path.
fn run_job(
    failpoints: &Failpoints,
    bank: Option<&Bank>,
    request: &SizingRequest,
    tech: &str,
    problem: &dyn SizingProblem,
) -> (RunHistory, Option<SourceChoice>) {
    let settings = request_settings(request.budget, request.seed);
    let deadline = request
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let bank = bank.filter(|_| request.yield_samples.is_none());
    let shim = FaultProblem {
        inner: problem,
        seed: settings.seed,
        failpoints,
    };
    let problem: &dyn SizingProblem = if failpoints.armed("sim_panic").is_some() {
        &shim
    } else {
        problem
    };
    run_with_bank(bank, &request.scenario, tech, problem, settings, deadline)
}

/// The `katod` daemon state: scenario registry, optional knowledge bank,
/// the in-memory result cache, armed failpoints, and serving counters for
/// the health report.
#[derive(Debug)]
pub struct Daemon {
    registry: ScenarioRegistry,
    bank: Option<Bank>,
    cache: ResultCache,
    failpoints: Failpoints,
    jobs_served: usize,
    jobs_failed: usize,
    append_errors: usize,
}

/// The id an error response echoes: the line's string `id`, or `""` when
/// the line is not an object or its `id` is not a string.
fn caller_id(doc: &Json) -> &str {
    doc.get("id").and_then(Json::as_str).unwrap_or("")
}

/// A sizing line resolved at intake: parsed, built and keyed once, then
/// shared read-only with the worker that runs it.
struct Intake {
    request: SizingRequest,
    tech: String,
    problem: Box<dyn SizingProblem>,
    key: String,
}

impl Intake {
    /// `true` when the request's deadline cut the run short of its budget.
    fn degraded(&self, history: &RunHistory) -> bool {
        self.request.deadline_ms.is_some() && history.len() < self.request.budget
    }
}

impl Daemon {
    /// Creates a daemon over the standard scenario registry, bankless.
    #[must_use]
    pub fn new() -> Self {
        Daemon {
            registry: ScenarioRegistry::standard(),
            bank: None,
            cache: ResultCache::new(),
            failpoints: Failpoints::default(),
            jobs_served: 0,
            jobs_failed: 0,
            append_errors: 0,
        }
    }

    /// Attaches a knowledge bank: completed runs are persisted to it and
    /// new requests query it for warm starts.
    #[must_use]
    pub fn with_bank(mut self, bank: Bank) -> Self {
        self.bank = Some(bank);
        self
    }

    /// Arms the daemon's `sim_panic` failpoint (replacing any armed set).
    #[must_use]
    pub fn with_failpoints(mut self, failpoints: Failpoints) -> Self {
        self.failpoints = failpoints;
        self
    }

    /// The daemon's armed failpoints.
    #[must_use]
    pub fn failpoints(&self) -> &Failpoints {
        &self.failpoints
    }

    /// The result cache (read-only view).
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Builds the `{"op": "health"}` response: bank attachment, entry/run/
    /// quarantine counts, cached source GPs and failed appends, cache size
    /// and saved hits, and job counters.
    #[must_use]
    pub(crate) fn health_json(&self) -> Json {
        let bank_json = match &self.bank {
            None => Json::obj(vec![("attached", Json::Bool(false))]),
            Some(bank) => Json::obj(vec![
                ("attached", Json::Bool(true)),
                ("entries", Json::Num(bank.entries().len() as f64)),
                ("runs", Json::Num(bank.total_runs() as f64)),
                ("quarantined", Json::Num(bank.quarantined_files() as f64)),
                (
                    "quarantined_on_open",
                    Json::Num(bank.quarantined_on_open() as f64),
                ),
                (
                    "cached_source_gps",
                    Json::Num(bank.cached_source_gps() as f64),
                ),
                ("append_errors", Json::Num(self.append_errors as f64)),
            ]),
        };
        Json::obj(vec![
            ("status", Json::str("ok")),
            ("op", Json::str("health")),
            ("bank", bank_json),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::Num(self.cache.len() as f64)),
                    ("hits", Json::Num(self.cache.total_hits() as f64)),
                ]),
            ),
            ("jobs_served", Json::Num(self.jobs_served as f64)),
            ("jobs_failed", Json::Num(self.jobs_failed as f64)),
        ])
    }

    /// Intercepts operational (non-sizing) requests: a line whose top-level
    /// `op` key names a daemon operation. Returns `None` for sizing
    /// requests (no `op` key / not an object), which proceed to
    /// [`SizingRequest::parse`].
    fn try_handle_op(&mut self, line: &str) -> Option<String> {
        let doc = Json::parse(line).ok()?;
        Some(match doc.get("op")?.as_str()? {
            "health" => self.health_json().to_string(),
            other => self.reject(
                caller_id(&doc),
                &format!("unknown op '{other}' (known: health)"),
            ),
        })
    }

    /// Counts a failed request and renders its error response.
    fn reject(&mut self, id: &str, message: &str) -> String {
        self.jobs_failed += 1;
        error_json(id, message).to_string()
    }

    /// Handles one request line, returning one response line (never
    /// panics — malformed input *and* panicking jobs become error
    /// responses). A batch of one: see [`Daemon::handle_batch`].
    pub fn handle_line(&mut self, line: &str) -> String {
        self.handle_batch(&[line.to_string()])
            .pop()
            .expect("a batch answers every line")
    }

    /// Resolves one line: parse, build the problem, key it. `Break`
    /// carries the line's finished response — an op's answer, an error, or
    /// a cache replay — with the serving counters already updated.
    fn intake(&mut self, line: &str) -> ControlFlow<String, Intake> {
        if let Some(response) = self.try_handle_op(line) {
            return ControlFlow::Break(response);
        }
        let request = match SizingRequest::parse(line) {
            Ok(r) => r,
            Err(e) => {
                let doc = Json::parse(line).unwrap_or(Json::Null);
                return ControlFlow::Break(self.reject(caller_id(&doc), &e));
            }
        };
        let (problem, tech) = match request.build_problem(&self.registry) {
            Ok(p) => p,
            Err(e) => return ControlFlow::Break(self.reject(&request.id, &e)),
        };
        // Naming the scenario's default backend computes what omitting it
        // does, so both spellings share one key.
        let key = match self.registry.get(&request.scenario) {
            Ok(s) if request.backend == Some(s.default_backend) => SizingRequest {
                backend: None,
                ..request.clone()
            }
            .cache_key(&tech),
            _ => request.cache_key(&tech),
        };
        if let Some(cached) = self.cache.hit(&key) {
            self.jobs_served += 1;
            return ControlFlow::Break(
                response_json(
                    &request,
                    &tech,
                    &*problem,
                    &cached.history,
                    true,
                    false,
                    cached.warm_source.as_ref(),
                )
                .to_string(),
            );
        }
        ControlFlow::Continue(Intake {
            request,
            tech,
            problem,
            key,
        })
    }

    /// Appends a completed job to the bank (when attached) and caches it.
    /// Degraded (deadline-truncated) traces are persisted to neither: a
    /// partial search must not pollute the bank's archives or answer a
    /// later request that asked for the full budget. Nor is a key already
    /// cached (a deadlined job that finished in time beside its
    /// undeadlined twin): each key is persisted once. Yield runs are cached
    /// but never archived — their metric vector (with the appended
    /// `"yield"` column) does not align with nominal archives of the same
    /// scenario.
    fn persist(&mut self, job: Intake, history: RunHistory, warm: Option<SourceChoice>) {
        if job.degraded(&history) || self.cache.contains(&job.key) {
            return;
        }
        if job.request.yield_samples.is_none() {
            if let Some(bank) = self.bank.as_mut() {
                // A failed append must not take the daemon down mid-request;
                // the run still lives in the cache for this process, and
                // health counts the failure.
                if let Err(e) = bank.append(&job.request.scenario, &job.tech, &history) {
                    self.append_errors += 1;
                    eprintln!("katod: bank append failed: {e}");
                }
            }
        }
        self.cache.store(job.key, history, warm);
    }

    /// Handles a batch of request lines, returning responses in request
    /// order. This is the daemon's only request path: [`Daemon::handle_line`]
    /// is a batch of one.
    ///
    /// Each line is resolved once at intake. Lines that fail to parse or
    /// resolve, ops, and cache hits answer there. Lines duplicated *within*
    /// the batch (same cache key and deadline) are answered from one
    /// execution. Distinct jobs run in parallel on the [`kato_par`] pool
    /// under [`kato_par::try_par_map`] — a job that panics answers *its*
    /// callers with an error response while every other job's results
    /// come back intact. Bank appends and cache stores happen sequentially
    /// afterwards.
    pub fn handle_batch(&mut self, lines: &[String]) -> Vec<String> {
        // Each job slot keeps its *own* request so duplicates still answer
        // with their caller's id.
        enum Slot {
            Ready(String),
            Job(usize, SizingRequest),
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(lines.len());
        let mut jobs: Vec<Intake> = Vec::new();
        for line in lines {
            let intake = match self.intake(line) {
                ControlFlow::Continue(intake) => intake,
                ControlFlow::Break(response) => {
                    slots.push(Slot::Ready(response));
                    continue;
                }
            };
            let twin = jobs.iter().position(|j| {
                j.key == intake.key && j.request.deadline_ms == intake.request.deadline_ms
            });
            let idx = twin.unwrap_or_else(|| {
                jobs.push(Intake {
                    request: intake.request.clone(),
                    ..intake
                });
                jobs.len() - 1
            });
            slots.push(Slot::Job(idx, intake.request));
        }

        // Execute distinct jobs concurrently with per-job panic isolation.
        let bank = self.bank.as_ref();
        let failpoints = &self.failpoints;
        let results = kato_par::try_par_map(&jobs, |job| {
            run_job(failpoints, bank, &job.request, &job.tech, &*job.problem)
        });

        // Render responses (each slot with its own request) before the
        // results move into the cache; duplicates within the batch count
        // as cache hits. A panicked job answers every one of its slots
        // with an error carrying that slot's request id.
        let mut job_hits = vec![0usize; jobs.len()];
        let responses: Vec<String> = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(text) => text,
                Slot::Job(idx, request) => match &results[idx] {
                    Err(msg) => self.reject(&request.id, &format!("job panicked: {msg}")),
                    Ok((history, warm)) => {
                        let job = &jobs[idx];
                        job_hits[idx] += 1;
                        self.jobs_served += 1;
                        response_json(
                            &request,
                            &job.tech,
                            &*job.problem,
                            history,
                            job_hits[idx] > 1,
                            job.degraded(history),
                            warm.as_ref(),
                        )
                        .to_string()
                    }
                },
            })
            .collect();
        for (job, result) in jobs.into_iter().zip(results) {
            if let Ok((history, warm)) = result {
                self.persist(job, history, warm);
            }
        }
        responses
    }

    /// Serves newline-delimited JSON: one request per input line, one
    /// response line written (and flushed) per request, until EOF. Blank
    /// lines are skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the transport (a malformed *request* is
    /// answered, not an error).
    pub fn serve(&mut self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_line(&line);
            writeln!(output, "{response}")?;
            output.flush()?;
        }
        Ok(())
    }
}

impl Default for Daemon {
    fn default() -> Self {
        Daemon::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn probe_size_and_settings_clamp() {
        assert_eq!(warm_probe_size(10), 5);
        assert_eq!(warm_probe_size(4), 4);
        assert_eq!(warm_probe_size(0), 4);
        let s = request_settings(6, 1);
        assert_eq!(s.n_init, 5);
        assert_eq!(s.budget, 6);
        let s = request_settings(40, 1);
        assert_eq!(s.n_init, 10);
    }

    #[test]
    fn malformed_lines_answer_with_errors() {
        let mut d = Daemon::new();
        let resp = d.handle_line("not json");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        let resp = d.handle_line(r#"{"scenario":"nope"}"#);
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("opamp2"));
    }

    #[test]
    fn invalid_requests_echo_their_string_id() {
        let cases = [
            (
                r#"{"id":"zero","scenario":"opamp2","budget":0,"seed":1}"#,
                "zero",
                "budget",
            ),
            (
                r#"{"id":"typo","scenario":"opamp2","bugdet":8}"#,
                "typo",
                "bugdet",
            ),
            (
                r#"{"id":"twice","scenario":"opamp2","budget":4,"budget":100,"seed":1}"#,
                "twice",
                "budget",
            ),
            (
                r#"{"id":"spec","scenario":"opamp2","specs":{"gain_db":50,"gain_db":70}}"#,
                "spec",
                "gain_db",
            ),
            ("garbage", "", ""),
            (r#"{"id":5,"scenario":"opamp2","budget":0}"#, "", "'id'"),
        ];
        let mut d = Daemon::new();
        for (line, id, named) in cases {
            let doc = Json::parse(&d.handle_line(line)).unwrap();
            assert_eq!(doc.get("status").unwrap().as_str(), Some("error"), "{line}");
            assert_eq!(doc.get("id").unwrap().as_str(), Some(id), "{line}");
            let error = doc.get("error").unwrap().as_str().unwrap();
            assert!(error.contains(named), "{line}: {error}");
        }
    }

    #[test]
    fn identical_requests_dedupe_through_the_cache() {
        let mut d = Daemon::new();
        let line = r#"{"id":"a","scenario":"opamp2","budget":12,"seed":3}"#.to_string();
        let first = d.handle_line(&line);
        let doc1 = Json::parse(&first).unwrap();
        assert_eq!(doc1.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(doc1.get("n_evals").unwrap().as_f64(), Some(12.0));
        // Same request, different id: a hit with the same trace.
        let second = d.handle_line(r#"{"id":"b","scenario":"opamp2","budget":12,"seed":3}"#);
        let doc2 = Json::parse(&second).unwrap();
        assert_eq!(doc2.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(doc2.get("id").unwrap().as_str(), Some("b"));
        assert_eq!(
            doc1.get("best").unwrap().to_string(),
            doc2.get("best").unwrap().to_string()
        );
        assert_eq!(d.cache().len(), 1);
    }

    #[test]
    fn batch_answers_in_order_and_dedupes_within_the_batch() {
        let mut d = Daemon::new();
        let lines = vec![
            r#"{"id":"1","scenario":"opamp2","budget":10,"seed":2}"#.to_string(),
            "garbage".to_string(),
            r#"{"id":"2","scenario":"opamp2","budget":10,"seed":2}"#.to_string(),
        ];
        let out = d.handle_batch(&lines);
        assert_eq!(out.len(), 3);
        let a = Json::parse(&out[0]).unwrap();
        let err = Json::parse(&out[1]).unwrap();
        let b = Json::parse(&out[2]).unwrap();
        assert_eq!(a.get("id").unwrap().as_str(), Some("1"));
        assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(b.get("id").unwrap().as_str(), Some("2"));
        // Both non-error responses share one execution.
        assert_eq!(d.cache().len(), 1);
        assert_eq!(
            a.get("n_evals").unwrap().as_f64(),
            b.get("n_evals").unwrap().as_f64()
        );
    }

    #[test]
    fn batch_answers_like_the_line_path() {
        let lines: Vec<String> = [
            r#"{"id":"a","scenario":"opamp2","budget":8,"seed":3}"#,
            r#"{"id":"b","scenario":"opamp2","tech":"40nm","budget":8,"seed":4}"#,
            r#"{"id":"a2","scenario":"opamp2","budget":8,"seed":3}"#,
            "garbage",
            r#"{"id":"k","scenario":"opamp2","bugdet":8}"#,
            r#"{"id":"u","scenario":"nope"}"#,
            r#"{"id":"dl","scenario":"opamp2","budget":30,"seed":4,"deadline_ms":1}"#,
            r#"{"id":"full","scenario":"opamp2","budget":30,"seed":4}"#,
        ]
        .map(String::from)
        .to_vec();
        let mut line_daemon = Daemon::new();
        let one_by_one: Vec<String> = lines.iter().map(|l| line_daemon.handle_line(l)).collect();
        let batched = Daemon::new().handle_batch(&lines);
        assert_eq!(batched.len(), lines.len());
        let field = |response: &str, key: &str| Json::parse(response).unwrap().get(key).cloned();
        for ((line, single), batch) in lines.iter().zip(&one_by_one).zip(&batched) {
            if line.contains("deadline_ms") {
                // A deadlined run's length depends on the wall clock.
                for key in ["status", "degraded"] {
                    assert_eq!(field(single, key), field(batch, key), "{line}");
                }
            } else {
                assert_eq!(single, batch, "{line}");
            }
        }
        assert_eq!(field(&batched[7], "n_evals"), Some(Json::Num(30.0)));
    }

    #[test]
    fn health_op_reports_bank_cache_and_counters() {
        let mut d = Daemon::new();
        let doc = Json::parse(&d.handle_line(r#"{"op":"health"}"#)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("health"));
        let bank = doc.get("bank").unwrap();
        assert_eq!(bank.get("attached").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("jobs_served").unwrap().as_f64(), Some(0.0));
        // One served job, one failure, one cache hit later:
        let _ = d.handle_line(r#"{"id":"a","scenario":"opamp2","budget":8,"seed":3}"#);
        let _ = d.handle_line("garbage");
        let _ = d.handle_line(r#"{"id":"b","scenario":"opamp2","budget":8,"seed":3}"#);
        let doc = Json::parse(&d.handle_line(r#"{"op":"health"}"#)).unwrap();
        assert_eq!(doc.get("jobs_served").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("jobs_failed").unwrap().as_f64(), Some(1.0));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("entries").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
        // Unknown ops error with the caller's id, not a parse rejection.
        let doc = Json::parse(&d.handle_line(r#"{"op":"restart","id":"x"}"#)).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn naming_the_default_backend_hits_the_cache_of_omitting_it() {
        let mut d = Daemon::new();
        let omitted = d.handle_line(r#"{"scenario":"opamp2","budget":4,"seed":1}"#);
        let named =
            d.handle_line(r#"{"scenario":"opamp2","budget":4,"seed":1,"backend":"square_law"}"#);
        let hit = |line: &str| {
            Json::parse(line)
                .unwrap()
                .get("cache_hit")
                .and_then(Json::as_bool)
        };
        assert_eq!(hit(&omitted), Some(false));
        assert_eq!(hit(&named), Some(true), "{named}");
        // The other backend is another computation.
        let lut = d.handle_line(r#"{"scenario":"opamp2","budget":4,"seed":1,"backend":"lut"}"#);
        assert_eq!(hit(&lut), Some(false));
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kato_daemon_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A daemon over a fresh bank at `dir` holding two `opamp2` runs: a
    /// cold 180nm one and a warm 40nm one.
    fn daemon_with_two_runs(dir: &std::path::Path) -> Daemon {
        let mut d = Daemon::new().with_bank(Bank::open(dir).unwrap());
        for line in [
            r#"{"scenario":"opamp2","tech":"180nm","budget":8,"seed":3}"#,
            r#"{"scenario":"opamp2","tech":"40nm","budget":8,"seed":4}"#,
        ] {
            let doc = Json::parse(&d.handle_line(line)).unwrap();
            assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        }
        d
    }

    #[test]
    fn health_counts_the_source_gps_selection_cached() {
        let dir = tmp_dir("cached_gps");
        drop(daemon_with_two_runs(&dir));
        let mut d = Daemon::new().with_bank(Bank::open(&dir).unwrap());
        let cached = |d: &mut Daemon| {
            let health = Json::parse(&d.handle_line(r#"{"op":"health"}"#)).unwrap();
            health
                .get("bank")
                .and_then(|b| b.get("cached_source_gps"))
                .and_then(Json::as_f64)
        };
        assert_eq!(cached(&mut d), Some(0.0), "open fits no source GP");
        let doc = Json::parse(
            &d.handle_line(r#"{"scenario":"opamp2","tech":"180nm","budget":8,"seed":5}"#),
        )
        .unwrap();
        let warm = doc.get("warm_start").unwrap();
        let alignment = warm.get("alignment").and_then(Json::as_f64).unwrap();
        assert!(alignment.is_finite(), "the warm request scored the runs");
        // One GP per scored run: both archived runs.
        assert_eq!(cached(&mut d), Some(2.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_batch_is_byte_identical_across_thread_counts() {
        // Two warm jobs of one scenario share the bank across workers and
        // race to fill its source GPs; the responses must not show it.
        let lines = vec![
            r#"{"id":"a","scenario":"opamp2","tech":"40nm","budget":8,"seed":5}"#.to_string(),
            r#"{"id":"b","scenario":"opamp2","tech":"180nm","budget":8,"seed":6}"#.to_string(),
        ];
        let serve = |threads: usize| {
            kato_par::with_threads(threads, || {
                let dir = tmp_dir(&format!("batch_threads{threads}"));
                let out = daemon_with_two_runs(&dir).handle_batch(&lines);
                std::fs::remove_dir_all(&dir).unwrap();
                out
            })
        };
        let serial = serve(1);
        for line in &serial {
            let doc = Json::parse(line).unwrap();
            assert!(!doc.get("warm_start").unwrap().is_null(), "{line}");
        }
        // The process's own width too, so a `KATO_THREADS=3` run covers
        // an uneven three-worker race.
        for threads in [kato_par::num_threads(), 4] {
            assert_eq!(serial, serve(threads), "{threads} workers");
        }
    }

    #[test]
    fn a_panicking_job_answers_with_an_error_and_serving_continues() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut d = Daemon::new().with_failpoints(Failpoints::parse("sim_panic=5"));
        let doc =
            Json::parse(&d.handle_line(r#"{"id":"boom","scenario":"opamp2","budget":8,"seed":5}"#))
                .unwrap();
        std::panic::set_hook(prev_hook);
        assert_eq!(doc.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("id").unwrap().as_str(), Some("boom"));
        let msg = doc.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("sim_panic"), "{msg}");
        assert_eq!(d.jobs_failed, 1);
        // Disarmed, the same daemon keeps serving — including seed 5.
        let mut d = d.with_failpoints(Failpoints::default());
        let doc =
            Json::parse(&d.handle_line(r#"{"id":"ok","scenario":"opamp2","budget":8,"seed":5}"#))
                .unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(d.jobs_served, 1);
    }

    #[test]
    fn deadlined_requests_degrade_and_skip_persistence() {
        let mut d = Daemon::new();
        let doc = Json::parse(&d.handle_line(
            r#"{"id":"d1","scenario":"opamp2","budget":30,"seed":4,"deadline_ms":1}"#,
        ))
        .unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(true));
        let n = doc.get("n_evals").unwrap().as_f64().unwrap();
        assert!(n < 30.0, "{n}");
        // The truncated trace was cached nowhere: the undeadlined rerun is
        // a fresh full run, not a replay of the partial one.
        assert_eq!(d.cache().len(), 0);
        let doc =
            Json::parse(&d.handle_line(r#"{"id":"d2","scenario":"opamp2","budget":30,"seed":4}"#))
                .unwrap();
        assert_eq!(doc.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("n_evals").unwrap().as_f64(), Some(30.0));
    }

    #[test]
    fn a_deadlined_twin_that_finishes_in_time_is_persisted_once() {
        // Lines that differ only in `deadline_ms` run as separate jobs;
        // when the deadline never fires both complete the same run, and
        // the bank must still archive it once.
        let dir = tmp_dir("twin");
        let mut d = Daemon::new().with_bank(Bank::open(&dir).unwrap());
        let out = d.handle_batch(&[
            r#"{"id":"t1","scenario":"opamp2","budget":8,"seed":3,"deadline_ms":600000}"#.into(),
            r#"{"id":"t2","scenario":"opamp2","budget":8,"seed":3}"#.into(),
        ]);
        for line in &out {
            let doc = Json::parse(line).unwrap();
            assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));
        }
        assert_eq!(d.bank.as_ref().unwrap().total_runs(), 1);
        assert_eq!(d.cache().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_loop_reads_writes_and_skips_blanks() {
        let mut d = Daemon::new();
        let input = "\n{\"id\":\"s1\",\"scenario\":\"opamp2\",\"budget\":8,\"seed\":5}\n\nbroken\n";
        let mut out = Vec::new();
        d.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("id").unwrap().as_str(),
            Some("s1")
        );
        assert_eq!(
            Json::parse(lines[1])
                .unwrap()
                .get("status")
                .unwrap()
                .as_str(),
            Some("error")
        );
    }
}
