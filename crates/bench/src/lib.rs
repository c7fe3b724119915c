#![warn(missing_docs)]

//! Experiment harness shared by the per-figure/per-table binaries.
//!
//! Every binary regenerates one artefact of the KATO paper's evaluation
//! (listed in README.md "Examples and paper artifacts") and prints the
//! same rows/series the paper reports, plus CSV files under `results/`.
//!
//! Binaries default to a **quick profile** (2 seeds, reduced budgets) and
//! accept `--full` for paper-scale runs; any other argument is an error.

use kato::{BoSettings, RunHistory};
use kato_circuits::{ScenarioRegistry, SizingProblem};
use std::fs;
use std::path::{Path, PathBuf};

/// Budget/seed profile for one experiment binary.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Seeds to repeat each configuration over.
    pub seeds: Vec<u64>,
    /// Simulation budget per run (including init).
    pub budget: usize,
    /// Random initial designs (FOM experiments).
    pub n_init_fom: usize,
    /// Random initial designs (constrained experiments, paper uses 300).
    pub n_init_con: usize,
    /// Source-archive size for transfer experiments (paper uses 200).
    pub source_n: usize,
    /// Samples used to calibrate FOM normalisation (paper uses 10 000).
    pub fom_samples: usize,
    /// `true` when running at paper scale.
    pub full: bool,
}

impl Profile {
    /// Quick profile: minutes, not hours.
    #[must_use]
    pub fn quick() -> Self {
        Profile {
            seeds: vec![11, 23],
            budget: 70,
            n_init_fom: 10,
            n_init_con: 40,
            source_n: 120,
            fom_samples: 300,
            full: false,
        }
    }

    /// Paper-scale profile (5 seeds, larger budgets).
    #[must_use]
    pub fn full() -> Self {
        Profile {
            seeds: vec![11, 23, 37, 53, 71],
            budget: 150,
            n_init_fom: 10,
            n_init_con: 300,
            source_n: 200,
            fom_samples: 10_000,
            full: true,
        }
    }

    /// Parses a paper binary's arguments, program name excluded: `--full`
    /// picks the paper-scale profile and, when the binary has `panels`,
    /// `--panel <p>` picks one of them. Returns the profile and the panel.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that is not accepted.
    pub fn parse_args(args: &[String], panels: &[&str]) -> Result<(Self, Option<String>), String> {
        let mut profile = Profile::quick();
        let mut panel = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => profile = Profile::full(),
                "--panel" if !panels.is_empty() => match it.next() {
                    Some(p) if panels.contains(&p.as_str()) => panel = Some(p.clone()),
                    _ => return Err(format!("--panel takes one of {}", panels.join(", "))),
                },
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok((profile, panel))
    }

    /// [`Profile::parse_args`] over the process arguments; on an error it
    /// prints usage and exits with status 2.
    #[must_use]
    pub fn from_args_with_panels(panels: &[&str]) -> (Self, Option<String>) {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let args: Vec<String> = args.collect();
        Profile::parse_args(&args, panels).unwrap_or_else(|msg| {
            let panel = if panels.is_empty() {
                String::new()
            } else {
                format!(" [--panel <{}>]", panels.join("|"))
            };
            eprintln!("error: {msg}\nusage: {program} [--full]{panel}");
            std::process::exit(2)
        })
    }

    /// [`Profile::from_args_with_panels`] for a binary without panels.
    #[must_use]
    pub fn from_args() -> Self {
        Profile::from_args_with_panels(&[]).0
    }

    /// Optimizer settings of a constrained run: `n_init_con` random
    /// designs followed by `budget` BO simulations.
    #[must_use]
    pub fn constrained_settings(&self, seed: u64) -> BoSettings {
        self.settings(self.budget + self.n_init_con, self.n_init_con, seed)
    }

    /// Optimizer settings of a FOM run: `budget` simulations in total,
    /// the first `n_init_fom` of them random.
    #[must_use]
    pub fn fom_settings(&self, seed: u64) -> BoSettings {
        self.settings(self.budget, self.n_init_fom, seed)
    }

    /// Paper-scale or quick settings, by profile, with `n_init` random
    /// designs out of `budget`.
    fn settings(&self, budget: usize, n_init: usize, seed: u64) -> BoSettings {
        let mut s = if self.full {
            BoSettings::paper(budget, seed)
        } else {
            BoSettings::quick(budget, seed)
        };
        s.n_init = n_init;
        s
    }
}

/// A registered `(scenario, tech node)` problem at the nominal corner.
///
/// # Panics
///
/// Panics if the standard registry has no such scenario or tech node.
#[must_use]
pub fn registered((scenario, tech): (&str, &str)) -> Box<dyn SizingProblem> {
    ScenarioRegistry::standard()
        .build(scenario, Some(tech), None)
        .expect("registered problem")
}

/// Runs one configuration once per seed, fanning the independent runs out
/// over the [`kato_par`] pool (`KATO_THREADS` controls the width). Results
/// come back in seed order, so multi-seed experiment tables are identical
/// for every thread count.
pub fn run_seeds<F>(seeds: &[u64], run: F) -> Vec<RunHistory>
where
    F: Fn(u64) -> RunHistory + Sync,
{
    kato_par::par_map(seeds, |&seed| run(seed))
}

/// Mean best-so-far curve across runs; −∞ entries (nothing feasible yet)
/// are dropped per-position so means stay meaningful.
#[must_use]
pub fn mean_curve(histories: &[RunHistory]) -> Vec<f64> {
    let len = histories.iter().map(RunHistory::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let vals: Vec<f64> = histories
                .iter()
                .map(|h| h.best_curve()[i])
                .filter(|v| v.is_finite())
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

/// Mean and sample std of the final best score across runs (ignoring runs
/// that never found a feasible design).
#[must_use]
pub fn final_stats(histories: &[RunHistory]) -> (f64, f64) {
    let finals: Vec<f64> = histories
        .iter()
        .filter_map(|h| h.best().map(|b| b.score))
        .collect();
    (
        kato_linalg::stats::mean(&finals),
        kato_linalg::stats::std_dev(&finals),
    )
}

/// Mean simulations to reach `threshold` across runs (runs that never reach
/// it count as the full budget) — the paper's speed-up numerator.
#[must_use]
pub fn mean_sims_to_reach(histories: &[RunHistory], threshold: f64) -> f64 {
    let vals: Vec<f64> = histories
        .iter()
        .map(|h| h.sims_to_reach(threshold).unwrap_or(h.len()) as f64)
        .collect();
    kato_linalg::stats::mean(&vals)
}

/// Prints aligned best-so-far series for several methods and writes a CSV.
pub fn print_series(
    title: &str,
    methods: &[(&str, Vec<RunHistory>)],
    stride: usize,
    csv_name: &str,
) {
    println!("\n=== {title} ===");
    let curves: Vec<(String, Vec<f64>)> = methods
        .iter()
        .map(|(name, hs)| ((*name).to_string(), mean_curve(hs)))
        .collect();
    let len = curves.iter().map(|(_, c)| c.len()).min().unwrap_or(0);
    print!("{:>6}", "sims");
    for (name, _) in &curves {
        print!("{name:>16}");
    }
    println!();
    let mut rows = Vec::new();
    let mut i = stride.max(1) - 1;
    while i < len {
        print!("{:>6}", i + 1);
        let mut row = vec![format!("{}", i + 1)];
        for (_, c) in &curves {
            print!("{:>16.4}", c[i]);
            row.push(format!("{:.6}", c[i]));
        }
        println!();
        rows.push(row.join(","));
        i += stride.max(1);
    }
    for (name, hs) in methods {
        let (m, s) = final_stats(hs);
        println!("  final {name}: {m:.4} +/- {s:.4}");
    }
    let mut header = vec!["sims".to_string()];
    header.extend(curves.iter().map(|(n, _)| n.clone()));
    write_csv(csv_name, &header.join(","), &rows);
}

/// Writes `header` and `rows`, one line each, to `results/<name>` (best
/// effort: a failure is reported as a warning but is non-fatal, so
/// experiments still print to stdout).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    match save_csv(Path::new("results"), name, header, rows) {
        Ok(path) => println!("  [written {}]", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
}

/// [`write_csv`] into `dir` with one write; the path written, or why not.
fn save_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}/: {e}", dir.display()))?;
    let path = dir.join(name);
    let mut text = format!("{header}\n");
    for row in rows {
        text.push_str(row);
        text.push('\n');
    }
    fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Formats a metrics row like the paper's Tables 1–2.
#[must_use]
fn metrics_row(label: &str, values: &[f64]) -> String {
    let mut out = format!("{label:<28}");
    for v in values {
        out.push_str(&format!("{v:>12.2}"));
    }
    out
}

/// The CSV line of a Tables 1–2 row: problem, method, then the metrics.
#[must_use]
fn csv_row(problem: &str, label: &str, values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("{problem},{label},{}", values.join(","))
}

/// Prints the Human Expert row of Tables 1–2, the problem's expert design
/// simulated once, and appends its CSV line to `rows`.
pub fn expert_row(problem: &dyn SizingProblem, rows: &mut Vec<String>) {
    let expert = problem.evaluate(&problem.expert_design());
    println!("{}", metrics_row("Human Expert", expert.values()));
    rows.push(csv_row(&problem.name(), "Human Expert", expert.values()));
}

/// Prints a method's row of Tables 1–2, the best feasible design across
/// its `runs` (the paper reports each method's best final design), and
/// appends its CSV line to `rows`.
pub fn table_row(problem: &str, label: &str, runs: &[RunHistory], rows: &mut Vec<String>) {
    let best = runs
        .iter()
        .filter_map(RunHistory::best)
        .max_by(|a, b| kato_linalg::cmp_nan_worst(&a.score, &b.score));
    match best {
        Some(e) => {
            println!("{}", metrics_row(label, e.metrics.values()));
            rows.push(csv_row(problem, label, e.metrics.values()));
        }
        None => println!("{label:<28}(no feasible design found)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato::Mode;
    use kato_circuits::{Goal, Metrics, SizingProblem, Spec, SpecKind, VarSpec};

    struct Toy {
        vars: Vec<VarSpec>,
        specs: Vec<Spec>,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                vars: vec![VarSpec::lin("a", 0.0, 1.0)],
                specs: vec![Spec {
                    metric: 0,
                    kind: SpecKind::Objective(Goal::Maximize),
                }],
            }
        }
    }

    impl SizingProblem for Toy {
        fn name(&self) -> String {
            "toy".into()
        }
        fn variables(&self) -> &[VarSpec] {
            &self.vars
        }
        fn metric_names(&self) -> &[&'static str] {
            &["obj"]
        }
        fn specs(&self) -> &[Spec] {
            &self.specs
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            Metrics::new(vec![x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![0.9]
        }
    }

    fn history_with(values: &[f64]) -> RunHistory {
        let toy = Toy::new();
        let mut h = RunHistory::new("toy", "m", 0);
        for &v in values {
            h.evaluate_and_push(&toy, &Mode::Constrained, vec![v]);
        }
        h
    }

    #[test]
    fn mean_curve_averages_runs() {
        let h1 = history_with(&[0.1, 0.5, 0.2]);
        let h2 = history_with(&[0.3, 0.3, 0.9]);
        let c = mean_curve(&[h1, h2]);
        assert_eq!(c.len(), 3);
        assert!((c[0] - 0.2).abs() < 1e-12);
        assert!((c[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn final_stats_and_speed() {
        let h1 = history_with(&[0.1, 0.8]);
        let h2 = history_with(&[0.6, 0.7]);
        let (m, s) = final_stats(&[h1.clone(), h2.clone()]);
        assert!((m - 0.75).abs() < 1e-12);
        assert!(s > 0.0);
        let sims = mean_sims_to_reach(&[h1, h2], 0.65);
        assert!((sims - 2.0).abs() < 1e-12);
    }

    #[test]
    fn profile_flags() {
        assert!(!Profile::quick().full);
        assert!(Profile::full().full);
        assert!(Profile::full().seeds.len() > Profile::quick().seeds.len());
    }

    #[test]
    fn parse_args_accepts_only_full_and_known_panels() {
        let parse = |args: &[&str], panels: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Profile::parse_args(&args, panels).map(|(p, panel)| (p.full, panel))
        };
        let panels = ["a", "b"];
        assert_eq!(parse(&[], &[]), Ok((false, None)));
        assert_eq!(parse(&["--full"], &[]), Ok((true, None)));
        assert_eq!(
            parse(&["--panel", "b", "--full"], &panels),
            Ok((true, Some("b".to_string())))
        );
        assert!(parse(&["--ful"], &[]).unwrap_err().contains("'--ful'"));
        assert!(parse(&["--panel"], &panels).is_err());
        assert!(parse(&["--panel", "z"], &panels).is_err());
        assert!(parse(&["--panel", "a"], &[]).is_err());
    }

    #[test]
    fn save_csv_writes_lines_once_and_reports_failures() {
        let dir = std::env::temp_dir().join(format!("kato_bench_csv_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let rows = ["1,2".to_string(), "3,4".to_string()];
        let path = save_csv(&dir, "t.csv", "a,b", &rows).expect("writable");
        assert_eq!(fs::read(&path).unwrap(), b"a,b\n1,2\n3,4\n");
        // A directory where the file should go: the write itself fails.
        fs::create_dir_all(dir.join("taken.csv")).unwrap();
        let err = save_csv(&dir, "taken.csv", "a,b", &rows).unwrap_err();
        assert!(
            err.starts_with("cannot write") && err.contains("taken.csv"),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_rows_print_the_best_feasible_run() {
        let mut rows = Vec::new();
        let runs = [history_with(&[0.1, 0.8]), history_with(&[0.6, 0.7])];
        table_row("toy", "m", &runs, &mut rows);
        assert_eq!(rows, ["toy,m,0.800"]);
        assert_eq!(
            csv_row("p", "Human Expert", &[1.0, 2.25]),
            "p,Human Expert,1.000,2.250"
        );
    }

    #[test]
    fn expert_row_writes_the_expert_design() {
        let mut rows = vec!["toy,m,0.800".to_string()];
        expert_row(&Toy::new(), &mut rows);
        assert_eq!(rows, ["toy,m,0.800", "toy,Human Expert,0.900"]);
    }

    #[test]
    fn metrics_row_formats() {
        let r = metrics_row("KATO", &[124.21, 61.18]);
        assert!(r.contains("KATO") && r.contains("124.21"));
    }
}
