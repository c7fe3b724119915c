//! End-to-end benchmark of the KATO workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <bo_nominal|bo_yield|serve_bank> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` runs the same inputs through the benchmark's traced mirror
//! and prints the per-layer metrics. The last stdout line is the result
//! object; the line before it records the run environment. See README.md.

mod bo;
mod cpu;
mod mirror;
mod report;
mod serve;
mod trace;

use report::Report;
use std::process::ExitCode;
use trace::Tracer;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["bo_nominal", "bo_yield", "serve_bank"];

/// Every per-layer metric, in print order. A layer a workload does not run
/// through (the bank on the BO workloads, KAT-GP transfer without a source)
/// reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("sim.candidates", "count"),
    ("sim.calls", "count"),
    ("sim.busy_ms", "ms"),
    ("sim.us_per_candidate", "us"),
    ("sim.share", "ratio"),
    ("sim.inner_evals", "count"),
    ("sim.inner_per_candidate", "ratio"),
    ("par.threads", "count"),
    ("par.eval_utilisation", "ratio"),
    ("model.fit_ms", "ms"),
    ("model.kat_fit_ms", "ms"),
    ("model.update_calls", "count"),
    ("model.update_ms", "ms"),
    ("model.kat_update_ms", "ms"),
    ("model.update_p50_ms", "ms"),
    ("model.update_p90_ms", "ms"),
    ("model.share", "ratio"),
    ("model.update_errors", "count"),
    ("propose.calls", "count"),
    ("propose.ms", "ms"),
    ("propose.p90_ms", "ms"),
    ("propose.front_size", "count"),
    ("propose.share", "ratio"),
    ("loop.iterations", "count"),
    ("loop.iter_p50_ms", "ms"),
    ("loop.iter_p90_ms", "ms"),
    ("loop.self_ms", "ms"),
    ("serve.handle_self_ms", "ms"),
    ("serve.probe_ms", "ms"),
    ("serve.resume_ms", "ms"),
    ("bank.open_ms", "ms"),
    ("bank.select_p50_ms", "ms"),
    ("bank.select_last_ms", "ms"),
    ("bank.select_runs_scored", "count"),
    ("bank.append_p50_ms", "ms"),
    ("bank.append_last_ms", "ms"),
    ("bank.bytes_read", "bytes"),
    ("bank.bytes_written", "bytes"),
    ("cache.hits", "count"),
    ("cache.hit_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.mirror_ok", "count"),
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a non-negative integer, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out commit, read from `.git` when the benchmark runs inside
/// a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(reference))
                            .map(|l| l.split(' ').next().unwrap_or_default().to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".to_string()
    } else {
        id.to_string()
    }
}

fn environment(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"kato_threads\":{},\"commit\":\"{}\",\"rustc\":\"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        kato_par::num_threads(),
        commit(),
        env!("BENCH_RUSTC_VERSION"),
    )
}

/// Adds the tracing metrics. `mirror_ok == false` withholds every other
/// per-layer number: they would describe a different program.
pub fn report_trace(report: &mut Report, mirror_ok: bool, traced_ms: f64, untraced_ms: f64) {
    report.metric(
        "trace.overhead_share",
        traced_ms / untraced_ms - 1.0,
        "ratio",
    );
    report.metric("trace.mirror_ok", f64::from(u8::from(mirror_ok)), "count");
    if !mirror_ok {
        report.retain_metrics(|name| name.starts_with("trace."));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kato_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        let mut tracer = Tracer::new();
        let mut report = match args.workload.as_str() {
            "bo_nominal" => bo::traced(bo::Kind::Nominal, &args, &mut tracer),
            "bo_yield" => bo::traced(bo::Kind::Yield, &args, &mut tracer),
            _ => serve::traced(&args, &mut tracer),
        };
        report.order_metrics(&PER_LAYER);
        let path = format!(
            ".bench_work/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        if let Err(e) = std::fs::create_dir_all(".bench_work")
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("kato_benchmark: could not write {path}: {e}");
        }
        report
    } else {
        match args.workload.as_str() {
            "bo_nominal" => bo::run(bo::Kind::Nominal, &args),
            "bo_yield" => bo::run(bo::Kind::Yield, &args),
            _ => serve::run(&args),
        }
    };
    println!("{}", environment(&args));
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
