//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer, and forwarding problems that time and count the
//! simulation layer. Nothing here reaches inside the crates.

use crate::cpu;
use kato_circuits::{Metrics, Scenario, SizingProblem, Spec, TechNode, VarSpec};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One traced call. `start`/`end` place it on the wall-clock timeline;
/// `cpu_ms` is the CPU time it cost: process CPU time for spans opened on
/// the driving thread, the worker's own CPU time for spans recorded from a
/// pool worker. `parent` indexes the enclosing span; `run` is the BO run
/// or request the span belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub cpu_ms: f64,
    pub parent: Option<usize>,
    pub run: usize,
}

/// In-memory span recorder; spans are written out once, at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags every span recorded from now on with run/request `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            cpu_ms: 0.0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let cpu = cpu::process_ms();
        let out = f(self);
        self.spans[id].cpu_ms = cpu::process_ms() - cpu;
        self.spans[id].end = Instant::now();
        self.open.pop();
        out
    }

    /// Records a call timed on a pool worker as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, cpu_ms: f64) {
        self.spans.push(Span {
            name,
            start,
            end,
            cpu_ms,
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    /// CPU ms of every span named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_ms)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Summed wall-clock duration of every span named `name`.
    pub fn wall_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |a, s| a + (s.end - s.start).as_secs_f64() * 1e3)
    }

    /// Summed self time of every span named `name`: its CPU time minus its
    /// children's. Children opened on the driving thread run one after
    /// another and children recorded on workers carry only their own
    /// thread's CPU, so their CPU times add up without double counting.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == name {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .fold(0.0, |a, c| a + c.cpu_ms);
                total += span.cpu_ms - children;
            }
        }
        total
    }

    /// The spans as JSON lines (`name`, wall start/end in µs from the
    /// tracer's creation, `cpu_ms`, `parent`, `run`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"cpu_ms\":{:.4},\"parent\":{parent},\"run\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.cpu_ms,
                s.run
            );
        }
        out
    }
}

/// Work and busy CPU time of the simulation layer, summed over pool
/// workers.
#[derive(Debug, Default)]
pub struct SimStats {
    pub candidates: AtomicU64,
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl SimStats {
    fn add(&self, candidates: usize, thread_cpu_ms: f64) {
        let ns = ((cpu::thread_ms() - thread_cpu_ms) * 1e6).max(0.0) as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.candidates
            .fetch_add(candidates as u64, Ordering::Relaxed);
    }

    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Forwards every `SizingProblem` call to `inner`, timing and counting
/// `evaluate` and `evaluate_batch` and keeping the inner scheduling hint.
pub struct SimProbe<'a> {
    pub inner: &'a dyn SizingProblem,
    pub stats: &'a SimStats,
}

impl SizingProblem for SimProbe<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
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
        let t = cpu::thread_ms();
        let m = self.inner.evaluate(x);
        self.stats.add(1, t);
        m
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        let t = cpu::thread_ms();
        let m = self.inner.evaluate_batch(xs);
        self.stats.add(xs.len(), t);
        m
    }
    fn expert_design(&self) -> Vec<f64> {
        self.inner.expert_design()
    }
    fn streaming_hint(&self) -> bool {
        self.inner.streaming_hint()
    }
}

/// Circuit simulations run underneath a yield problem (one per corner ×
/// mismatch sample actually simulated).
pub static INNER_EVALS: AtomicU64 = AtomicU64::new(0);

/// The wrapped scenario's real constructor; `Scenario::new` takes a plain
/// `fn`, so the counting builder reaches it through this cell.
static INNER_BUILD: OnceLock<fn(TechNode) -> Box<dyn SizingProblem>> = OnceLock::new();

struct Counted(Box<dyn SizingProblem>);

impl SizingProblem for Counted {
    fn name(&self) -> String {
        self.0.name()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn variables(&self) -> &[VarSpec] {
        self.0.variables()
    }
    fn metric_names(&self) -> &[&'static str] {
        self.0.metric_names()
    }
    fn specs(&self) -> &[Spec] {
        self.0.specs()
    }
    fn evaluate(&self, x: &[f64]) -> Metrics {
        INNER_EVALS.fetch_add(1, Ordering::Relaxed);
        self.0.evaluate(x)
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Metrics> {
        INNER_EVALS.fetch_add(xs.len() as u64, Ordering::Relaxed);
        self.0.evaluate_batch(xs)
    }
    fn expert_design(&self) -> Vec<f64> {
        self.0.expert_design()
    }
    fn streaming_hint(&self) -> bool {
        self.0.streaming_hint()
    }
}

fn counting_build(node: TechNode) -> Box<dyn SizingProblem> {
    let build = INNER_BUILD
        .get()
        .expect("counting scenario registered first");
    Box::new(Counted(build(node)))
}

/// A copy of `scenario` whose every circuit instance counts its
/// simulations into [`INNER_EVALS`]. One wrapped scenario per process.
pub fn counting_scenario(scenario: &Scenario) -> Scenario {
    INNER_BUILD.get_or_init(|| scenario.builder());
    Scenario::new(
        scenario.name,
        scenario.summary,
        scenario.tech_names,
        scenario.default_tech,
        scenario.corners.clone(),
        counting_build,
    )
    .with_default_backend(scenario.default_backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_cpu() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            let now = Instant::now();
            t.record("a", now, now, 4.0);
            t.record("b", now, now, 2.0);
            let spin = cpu::process_ms();
            while cpu::process_ms() - spin < 10.0 {}
        });
        let outer = t.total_ms("outer");
        assert!(outer >= 10.0);
        assert!((outer - t.self_ms("outer") - 6.0).abs() < 1e-9);
        assert_eq!(t.durations_ms("a"), vec![4.0]);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
