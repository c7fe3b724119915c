//! `serve_bank`: one closed-loop client driving an in-process `Daemon`
//! through `handle_line`, with a knowledge bank that grows during the run.

use crate::bo::Layers;
use crate::cpu::{self, Meter, Op};
use crate::mirror::{self, LoopStats};
use crate::report::{mean, median, mix, p50, peak_rss_mb, percentile, reset_peak_rss, Report};
use crate::trace::{SimProbe, SimStats, Tracer};
use crate::Args;
use kato::{Mode, RunHistory};
use kato_circuits::{random_design, ScenarioRegistry};
use kato_serve::daemon::{request_settings, warm_probe_size};
use kato_serve::protocol::response_json;
use kato_serve::{Bank, Daemon, Json, ResultCache, SizingRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Simulation budget of every sizing request: small, so a run holds
/// enough warm requests for steady thirds in `warm_latency_growth`.
const BUDGET: usize = 20;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Archives of other scenarios the bank starts with, as a long-running
/// daemon's bank would: `Bank::open` validates all of them, while
/// `opamp2` requests start cold and select only among `opamp2` runs.
const PREPOPULATED: [(&str, &str); 4] = [
    ("ldo", "180nm"),
    ("ldo", "40nm"),
    ("folded_cascode", "180nm"),
    ("folded_cascode", "40nm"),
];
const PREPOPULATED_RUNS: usize = 3;
const PREPOPULATED_EVALS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineKind {
    /// The `n`-th distinct sizing request.
    Sizing(usize),
    /// A repeat of distinct request `n`: a cache hit.
    Repeat(usize),
    Health,
}

struct Line {
    text: String,
    kind: LineKind,
}

/// The request stream. Distinct sizing requests are a fixed sequence
/// (`opamp2`, fresh run seeds, alternating 180nm and 40nm, so every one
/// after the first is a cross-node or same-node warm start). The workload
/// seed places the cache-hit repeats (one per four distinct requests, each
/// of an earlier request) and the phase of the periodic health probe;
/// neither changes what any sizing request computes. A final health probe
/// closes the stream.
fn stream(seed: u64, seconds: u64) -> (Vec<Line>, usize) {
    // About 1.5 distinct requests per second of run on a 2-core machine.
    let distinct = (seconds as usize * 3 / 2).max(2);
    let repeats = distinct / 4;
    // Repeat slots: after distinct request k (k >= 1), chosen by the seed.
    let mut after: Vec<usize> = Vec::new();
    let mut salt = 0;
    while after.len() < repeats {
        salt += 1;
        let k = 1 + (mix(seed, salt) % (distinct as u64 - 1)) as usize;
        if !after.contains(&k) {
            after.push(k);
        }
    }
    let health_phase = (mix(seed, 1000) % 5) as usize;
    let mut lines = Vec::new();
    let mut sizing_lines = 0;
    for i in 0..distinct {
        let tech = tech_of(i);
        lines.push(Line {
            text: format!(
                "{{\"id\":\"q{i}\",\"scenario\":\"opamp2\",\"tech\":\"{tech}\",\"seed\":{},\"budget\":{BUDGET}}}",
                1000 + i
            ),
            kind: LineKind::Sizing(i),
        });
        sizing_lines += 1;
        if after.contains(&i) {
            let of = (mix(seed, 2000 + i as u64) % (i as u64 + 1)) as usize;
            let tech = tech_of(of);
            lines.push(Line {
                text: format!(
                    "{{\"id\":\"r{i}\",\"scenario\":\"opamp2\",\"tech\":\"{tech}\",\"seed\":{},\"budget\":{BUDGET}}}",
                    1000 + of
                ),
                kind: LineKind::Repeat(of),
            });
            sizing_lines += 1;
        }
        if sizing_lines % 5 == health_phase {
            lines.push(Line {
                text: "{\"op\":\"health\"}".to_string(),
                kind: LineKind::Health,
            });
        }
    }
    lines.push(Line {
        text: "{\"op\":\"health\"}".to_string(),
        kind: LineKind::Health,
    });
    (lines, distinct)
}

/// Tech node of distinct request `i`: the stream alternates nodes.
fn tech_of(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        "180nm"
    } else {
        "40nm"
    }
}

/// A fresh bank directory with the prepopulated archives: random-design
/// runs seeded from the workload seed.
fn prepopulate(dir: &Path, registry: &ScenarioRegistry, seed: u64) -> usize {
    let _ = std::fs::remove_dir_all(dir);
    let mut bank = Bank::open(dir).expect("bank directory is writable");
    let mut runs = 0;
    for (k, (scenario, tech)) in PREPOPULATED.iter().enumerate() {
        let problem = registry
            .build(scenario, Some(tech), None)
            .expect("prepopulated scenarios are registered");
        for r in 0..PREPOPULATED_RUNS {
            let run_seed = mix(seed, (k * PREPOPULATED_RUNS + r) as u64);
            let mut rng = StdRng::seed_from_u64(run_seed);
            let designs: Vec<Vec<f64>> = (0..PREPOPULATED_EVALS)
                .map(|_| random_design(problem.dim(), &mut rng))
                .collect();
            let mut history = RunHistory::new(&problem.name(), "random", run_seed);
            history.evaluate_and_push_batch(problem.as_ref(), &Mode::Constrained, designs);
            bank.append(scenario, tech, &history)
                .expect("prepopulating the bank");
            runs += 1;
        }
    }
    runs
}

/// Everything set up before the first timed request.
struct Setup {
    registry: ScenarioRegistry,
    bank: Bank,
    prepopulated: usize,
    /// Expert-design objective per tech node, the base of `best_score`.
    reference_180: f64,
    reference_40: f64,
    open_ms: f64,
}

fn setup(dir: &Path, seed: u64) -> Setup {
    let registry = ScenarioRegistry::standard();
    let reference = |tech: &str| {
        let p = registry
            .build("opamp2", Some(tech), None)
            .expect("opamp2 is registered on both nodes");
        p.evaluate(&p.expert_design())
            .objective(p.specs())
            .expect("opamp2 has an objective")
    };
    let (reference_180, reference_40) = (reference("180nm"), reference("40nm"));
    let prepopulated = prepopulate(dir, &registry, seed);
    let start = cpu::process_ms();
    let bank = Bank::open(dir).expect("reopening the prepopulated bank");
    // Raw CPU ms: a per-layer number, reported without calibration.
    let open_ms = cpu::process_ms() - start;
    Setup {
        registry,
        bank,
        prepopulated,
        reference_180,
        reference_40,
        open_ms,
    }
}

/// Sets up `SETUP_REPEATS` times in `dir`, returning the last set-up, the
/// timing of each set-up and the median `Bank::open` CPU ms.
fn timed_setup(dir: &Path, seed: u64, meter: &mut Meter) -> (Setup, Vec<Op>, f64) {
    let mut times = Vec::new();
    let mut opens = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (s, op) = meter.time(|| setup(dir, seed));
        times.push(op);
        opens.push(s.open_ms);
        last = Some(s);
    }
    (last.expect("at least one set-up"), times, median(&opens))
}

fn work_dir(args: &Args, tag: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!(
        "serve_bank-{}-{}-{tag}",
        args.seed,
        std::process::id()
    ))
}

/// One answered sizing line.
struct Answer {
    op: Op,
    rss_mb: f64,
    warm: bool,
    n_evals: f64,
    stf: f64,
    score: Option<f64>,
}

/// Drives the daemon through the stream, checking every response.
/// Returns the per-line answers (`None` for health lines) and the raw
/// response lines.
fn drive(
    meter: &mut Meter,
    daemon: &mut Daemon,
    lines: &[Line],
    distinct: usize,
    prepopulated: usize,
    report: &mut Report,
) -> (Vec<Option<Answer>>, Vec<String>) {
    let mut answers: Vec<Option<Answer>> = Vec::with_capacity(lines.len());
    let mut raw = Vec::with_capacity(lines.len());
    let mut firsts: Vec<Option<String>> = vec![None; distinct];
    for line in lines {
        reset_peak_rss();
        let (response, op) = meter.time(|| daemon.handle_line(&line.text));
        let rss_mb = peak_rss_mb();
        report.attempted += 1;
        let doc = Json::parse(&response).unwrap_or(Json::Null);
        let ok = doc.get("status").and_then(Json::as_str) == Some("ok");
        report.check(ok, || format!("{}: error response {response}", line.text));
        if !ok {
            report.failed += 1;
        }
        let answer = match line.kind {
            LineKind::Health => None,
            LineKind::Sizing(_) | LineKind::Repeat(_) => {
                let n_evals = doc.get("n_evals").and_then(Json::as_f64).unwrap_or(0.0);
                let cache_hit = doc.get("cache_hit").and_then(Json::as_bool) == Some(true);
                let best = doc.get("best").map_or_else(String::new, Json::to_string);
                report.check(n_evals == BUDGET as f64, || {
                    format!("{}: n_evals {n_evals}, budget {BUDGET}", line.text)
                });
                if ok && n_evals != BUDGET as f64 {
                    report.failed += 1;
                }
                match line.kind {
                    LineKind::Sizing(i) => {
                        report.check(!cache_hit, || {
                            format!("{}: unexpected cache hit", line.text)
                        });
                        firsts[i] = Some(best.clone());
                    }
                    LineKind::Repeat(of) => {
                        report.check(cache_hit, || {
                            format!("{}: repeat missed the cache", line.text)
                        });
                        report.check(firsts[of].as_deref() == Some(best.as_str()), || {
                            format!("{}: cache hit's best differs from the original", line.text)
                        });
                    }
                    LineKind::Health => unreachable!(),
                }
                Some(Answer {
                    op,
                    rss_mb,
                    warm: !doc.get("warm_start").is_none_or(Json::is_null) && !cache_hit,
                    n_evals,
                    stf: doc
                        .get("sims_to_feasible")
                        .and_then(Json::as_f64)
                        .unwrap_or(BUDGET as f64 + 1.0),
                    score: doc
                        .get("best")
                        .and_then(|b| b.get("score"))
                        .and_then(Json::as_f64),
                })
            }
        };
        answers.push(answer);
        raw.push(response);
    }

    // The final health report must match what the client sent.
    let sizing = lines
        .iter()
        .filter(|l| !matches!(l.kind, LineKind::Health))
        .count();
    let repeats = lines
        .iter()
        .filter(|l| matches!(l.kind, LineKind::Repeat(_)))
        .count();
    let health = Json::parse(raw.last().expect("stream ends with health")).unwrap_or(Json::Null);
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&health, |doc, key| doc.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
    };
    let expect = [
        (vec!["jobs_served"], sizing),
        (vec!["jobs_failed"], 0),
        (vec!["cache", "hits"], repeats),
        (vec!["cache", "entries"], distinct),
        (vec!["bank", "runs"], distinct + prepopulated),
        (vec!["bank", "entries"], PREPOPULATED.len() + 2),
    ];
    for (path, want) in expect {
        let got = num(&path);
        report.check(got == want as f64, || {
            format!("final health {}: {got}, client sent {want}", path.join("."))
        });
    }
    (answers, raw)
}

/// The end-to-end run (tracing off).
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let dir = work_dir(args, "daemon");
    let (lines, distinct) = stream(args.seed, args.seconds);
    let mut meter = Meter::new();
    let (s, setup_ops, _) = timed_setup(&dir, args.seed, &mut meter);
    let mut daemon = Daemon::new().with_bank(s.bank);
    let (answers, _) = drive(
        &mut meter,
        &mut daemon,
        &lines,
        distinct,
        s.prepopulated,
        &mut report,
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut executed_ms = 0.0;
    let mut sims = 0.0;
    let mut warm_ms = Vec::new();
    let mut warm_stf = Vec::new();
    let mut scores = Vec::new();
    let mut peak_rss = Vec::new();
    for (line, answer) in lines.iter().zip(&answers) {
        let (LineKind::Sizing(i), Some(a)) = (line.kind, answer) else {
            continue;
        };
        let ms = meter.ms(a.op);
        executed_ms += ms;
        peak_rss.push(a.rss_mb);
        sims += a.n_evals;
        if a.warm {
            warm_ms.push(ms);
            warm_stf.push(a.stf);
        }
        let reference = if tech_of(i) == "180nm" {
            s.reference_180
        } else {
            s.reference_40
        };
        // opamp2 minimises current: the signed scores are negative.
        scores.push(a.score.map_or(0.0, |best| reference / best));
    }
    report.check(warm_ms.len() + 1 == distinct, || {
        format!("{} warm requests of {distinct}", warm_ms.len())
    });
    let third = (warm_ms.len() / 3).max(1);
    let growth = mean(&warm_ms[warm_ms.len() - third..]) / mean(&warm_ms[..third]);

    let setup: Vec<f64> = setup_ops.iter().map(|&op| meter.ms(op) / 1e3).collect();
    report.metric("setup_s", median(&setup), "s");
    report.metric("ms_per_sim", executed_ms / sims.max(1.0), "ms");
    report.metric("sims_to_feasible", mean(&warm_stf), "sims");
    report.metric("best_score", median(&scores), "score");
    report.metric("warm_p50_ms", p50(&warm_ms), "ms");
    report.metric("warm_latency_growth", growth, "ratio");
    report.metric("peak_rss_mb", median(&peak_rss), "MB");
    report
}

/// Bank-file and request-level counters of the traced pass.
#[derive(Debug, Default)]
struct BankStats {
    runs_scored: u64,
    bytes_read: u64,
    bytes_written: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The traced run: the daemon once (untraced, for the fidelity gate and
/// the overhead baseline), then the same stream decomposed the way
/// `run_with_bank` and `handle_line` compose it, with the mirror loop
/// inside, then the comparison of responses and bank files.
pub fn traced(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let (lines, distinct) = stream(args.seed, args.seconds);

    let daemon_dir = work_dir(args, "daemon");
    let s = setup(&daemon_dir, args.seed);
    let prepopulated = s.prepopulated;
    let mut daemon = Daemon::new().with_bank(s.bank);
    let mut meter = Meter::new();
    let (answers, responses) = drive(
        &mut meter,
        &mut daemon,
        &lines,
        distinct,
        prepopulated,
        &mut report,
    );

    let mirror_dir = work_dir(args, "mirror");
    let (s, _, open_ms) = timed_setup(&mirror_dir, args.seed, &mut meter);
    let Setup {
        registry, mut bank, ..
    } = s;
    let mut cache = ResultCache::new();
    let sim = SimStats::default();
    let mut loop_stats = LoopStats::default();
    let mut bank_stats = BankStats::default();
    let mut mismatches = 0;
    let mut traced = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.kind == LineKind::Health {
            continue;
        }
        tracer.set_run(i);
        let (response, op) = meter.time(|| {
            tracer.span("serve.request", |tracer| {
                serve_one(
                    &line.text,
                    &registry,
                    &mut bank,
                    &mut cache,
                    &sim,
                    &mut loop_stats,
                    &mut bank_stats,
                    tracer,
                )
            })
        });
        traced.push(op);
        if response.as_deref() != Ok(responses[i].as_str()) {
            eprintln!("fidelity gate: response to {} differs", line.text);
            mismatches += 1;
        }
    }
    if !same_files(&daemon_dir, &mirror_dir) {
        eprintln!("fidelity gate: bank files differ");
        mismatches += 1;
    }
    let _ = std::fs::remove_dir_all(&daemon_dir);
    let _ = std::fs::remove_dir_all(&mirror_dir);

    let layers = Layers {
        tracer,
        sim: &sim,
        loop_stats: &loop_stats,
        cpu_ms: tracer.total_ms("serve.request"),
        inner_evals: SimStats::get(&sim.candidates),
    };
    layers.report_bo(&mut report);
    let t = &*tracer;
    let selects = t.durations_ms("bank.select");
    let appends = t.durations_ms("bank.append");
    let hits = cache.total_hits();
    let sizing = lines.iter().filter(|l| l.kind != LineKind::Health).count();
    report.metric("serve.handle_self_ms", t.self_ms("serve.request"), "ms");
    report.metric("serve.probe_ms", t.total_ms("serve.probe"), "ms");
    report.metric("serve.resume_ms", t.total_ms("serve.resume"), "ms");
    report.metric("bank.open_ms", open_ms, "ms");
    report.metric("bank.select_p50_ms", percentile(&selects, 0.5), "ms");
    report.metric(
        "bank.select_last_ms",
        selects.last().copied().unwrap_or(f64::NAN),
        "ms",
    );
    report.metric(
        "bank.select_runs_scored",
        bank_stats.runs_scored as f64,
        "count",
    );
    report.metric("bank.append_p50_ms", percentile(&appends, 0.5), "ms");
    report.metric(
        "bank.append_last_ms",
        appends.last().copied().unwrap_or(f64::NAN),
        "ms",
    );
    report.metric("bank.bytes_read", bank_stats.bytes_read as f64, "bytes");
    report.metric(
        "bank.bytes_written",
        bank_stats.bytes_written as f64,
        "bytes",
    );
    report.metric("cache.hits", hits as f64, "count");
    report.metric("cache.hit_share", hits as f64 / sizing as f64, "ratio");
    let traced_ms: f64 = traced.iter().map(|&op| meter.ms(op)).sum();
    let untraced_ms: f64 = answers.iter().flatten().map(|a| meter.ms(a.op)).sum();
    crate::report_trace(&mut report, mismatches == 0, traced_ms, untraced_ms);
    report
}

/// One sizing line, decomposed as `Daemon::handle_line` and
/// `run_with_bank` compose it (no deadline, no failpoints): parse, build,
/// cache lookup, then probe → `Bank::select_source` → `Kato::resume`, or a
/// cold `Kato::run` on an empty bank, then `Bank::append` and the cache.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    text: &str,
    registry: &ScenarioRegistry,
    bank: &mut Bank,
    cache: &mut ResultCache,
    sim: &SimStats,
    loop_stats: &mut LoopStats,
    bank_stats: &mut BankStats,
    tracer: &mut Tracer,
) -> Result<String, String> {
    let request = SizingRequest::parse(text)?;
    let (problem, tech) = request.build_problem(registry)?;
    let key = request.cache_key(&tech);
    if let Some(cached) = cache.hit(&key) {
        return Ok(response_json(
            &request,
            &tech,
            &*problem,
            &cached.history,
            true,
            false,
            cached.warm_source.as_ref(),
        )
        .to_string());
    }
    let settings = request_settings(request.budget, request.seed);
    let probe_problem = SimProbe {
        inner: &*problem,
        stats: sim,
    };
    let (history, warm) = if bank.has_candidates(&request.scenario) {
        let probe = tracer.span("serve.probe", |tracer| {
            let probe_n = warm_probe_size(settings.n_init).min(settings.budget);
            let mut probe = RunHistory::new(&problem.name(), "KATO", settings.seed);
            let mut rng = StdRng::seed_from_u64(settings.seed);
            let designs: Vec<Vec<f64>> = (0..probe_n)
                .map(|_| random_design(problem.dim(), &mut rng))
                .collect();
            tracer.span("sim.eval", |_| {
                probe.evaluate_and_push_batch(&probe_problem, &Mode::Constrained, designs)
            });
            probe
        });
        for entry in bank.candidates(&request.scenario) {
            bank_stats.runs_scored += entry.runs as u64;
            bank_stats.bytes_read += file_len(&bank.dir().join(&entry.file));
        }
        let chosen = tracer.span("bank.select", |_| {
            bank.select_source(&request.scenario, &tech, problem.specs(), &probe)
        });
        tracer.span("serve.resume", |tracer| match chosen {
            Some((source, choice)) => {
                let label = format!("KATO+bank[{}]", choice.label);
                mirror::resume(
                    &probe_problem,
                    &settings,
                    Some(&source),
                    &label,
                    probe,
                    tracer,
                    loop_stats,
                )
                .map(|h| (h, Some(choice)))
            }
            None => mirror::resume(
                &probe_problem,
                &settings,
                None,
                "KATO",
                probe,
                tracer,
                loop_stats,
            )
            .map(|h| (h, None)),
        })?
    } else {
        let history = tracer.span("bo.run", |tracer| {
            mirror::run(&probe_problem, &settings, tracer, loop_stats)
        })?;
        (history, None)
    };
    let response = response_json(
        &request,
        &tech,
        &*problem,
        &history,
        false,
        false,
        warm.as_ref(),
    )
    .to_string();
    let archive = bank
        .dir()
        .join(format!("{}__{}.json", request.scenario, tech));
    bank_stats.bytes_read += file_len(&archive);
    tracer
        .span("bank.append", |_| {
            bank.append(&request.scenario, &tech, &history)
        })
        .map_err(|e| e.to_string())?;
    bank_stats.bytes_written += file_len(&archive) + file_len(&bank.dir().join("index.json"));
    tracer.span("cache.store", |_| cache.store(key, history, warm));
    Ok(response)
}

/// `true` when both directories hold the same file names with the same
/// bytes.
fn same_files(a: &Path, b: &Path) -> bool {
    let listing = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .map(|it| {
                it.flatten()
                    .map(|e| {
                        (
                            e.file_name().to_string_lossy().into_owned(),
                            std::fs::read(e.path()).unwrap_or_default(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        files.sort();
        files
    };
    let (la, lb) = (listing(a), listing(b));
    !la.is_empty() && la == lb
}
