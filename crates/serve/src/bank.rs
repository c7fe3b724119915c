//! The persistent knowledge bank: a directory of run archives that turns
//! every completed sizing run into warm-start material for future requests.
//!
//! # Layout
//!
//! ```text
//! <bank>/
//!   opamp2__180nm.json          {"version":1,"scenario","tech","runs":[<RunHistory>...]}
//!   opamp2__40nm.json
//!   ...
//! ```
//!
//! One archive file per `scenario×tech`, and nothing else: the archives
//! are the bank's only on-disk state. [`Bank::open`] reads every archive,
//! and the bank lists them in file-name order, so a bank that appended and
//! a fresh open of its directory list the same entries. Writes are atomic
//! (temp file + rename) so a crashed append never corrupts an archive, and
//! every archive carries a format version so a future schema change can
//! migrate old banks explicitly instead of misreading them. The manifest
//! older banks kept beside their archives is skipped.
//!
//! # Self-healing
//!
//! A production bank must survive what a crash or a bad disk leaves
//! behind, so [`Bank::open`] *recovers* instead of refusing:
//!
//! * every archive file on disk is validated (parse + version + run
//!   decode); a torn, corrupt or newer-version file is **quarantined** —
//!   renamed to `<name>.quarantine`, preserving the bytes for forensics —
//!   and the bank warm-starts from the remaining archives;
//! * writes retry with bounded exponential backoff on I/O errors before
//!   the error surfaces, and an append that finds its existing archive
//!   corrupt quarantines it and starts the archive fresh.
//!
//! `Bank::quarantined_files` reports how many `.quarantine` files the
//! directory holds — surfaced by the daemon's `{"op":"health"}` response.
//!
//! # Source selection
//!
//! [`Bank::select_source`] ranks every archived run of the requested
//! scenario — any tech node, which is the whole point: an `opamp2@180nm`
//! run warm-starts an `opamp2@40nm` request — by *alignment*: a cheap GP is
//! fitted to the candidate's objective column, a [`KatGp`] is aligned from
//! it onto the request's probe evaluations, and the candidate with the
//! highest mean predictive log-likelihood on the probe wins (the same
//! knowledge-alignment machinery the optimiser itself uses, paper §3.2).
//!
//! Selection reads no files. The bank holds in memory the runs
//! [`Bank::open`] decoded while validating and every run this process
//! appended since, and each run keeps its fitted objective GP once a
//! selection has needed it, so a request refits only the KAT-GP
//! alignments on its own probe. The in-memory view is therefore what this
//! process validated at open or wrote since: an archive torn on disk after
//! open (by a crash, or the `bank_torn` failpoint) still serves its runs
//! here, and the next open quarantines it.
//!
//! Selection assumes one process writes the bank while it is open. Runs
//! another process appends are invisible to selection until this process
//! next appends to the same archive — [`Bank::append`] then rebuilds its
//! view of that file — or until the next open.

use crate::archive::{history_from_json, history_to_json};
use crate::faults::Failpoints;
use crate::json::Json;
use kato::{larger_is_worse, RunHistory, SourceData};
use kato_circuits::{Goal, Spec, SpecKind};
use kato_gp::{Gp, GpConfig, KatConfig, KatGp, KernelSpec};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

/// Schema version stamped into every bank file.
pub(crate) const BANK_VERSION: u64 = 1;

/// Write attempts before an I/O error surfaces to the caller.
pub const WRITE_ATTEMPTS: u32 = 3;

/// Base backoff between write retries (doubles per retry).
const WRITE_BACKOFF: std::time::Duration = std::time::Duration::from_millis(5);

/// Minimum finite probe objective values needed to alignment-score
/// candidates (the probe is split into a fit half and a held-out scoring
/// half); below this the bank falls back to the largest archive.
pub(crate) const MIN_PROBE_POINTS: usize = 4;

/// Errors from opening, reading or appending to a bank.
#[derive(Debug)]
pub enum BankError {
    /// Filesystem failure (path and cause in the message).
    Io(String),
    /// A bank file exists but does not parse as the expected schema.
    Corrupt(String),
}

impl fmt::Display for BankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankError::Io(msg) => write!(f, "bank I/O error: {msg}"),
            BankError::Corrupt(msg) => write!(f, "corrupt bank file: {msg}"),
        }
    }
}

impl std::error::Error for BankError {}

/// One archive file of the bank and what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankEntry {
    /// Scenario name, e.g. `opamp2`.
    pub(crate) scenario: String,
    /// Tech-node name, e.g. `180nm`.
    pub(crate) tech: String,
    /// Archive file name relative to the bank directory.
    pub file: String,
    /// Number of runs archived in the file.
    pub runs: usize,
}

/// Which archived run a warm start was built from, and how well it aligned.
#[derive(Debug, Clone)]
pub struct SourceChoice {
    /// The archived run's problem label, e.g. `opamp2_180nm`.
    pub label: String,
    /// Tech node of the source archive.
    pub tech: String,
    /// `true` when the source is the same tech node as the request.
    pub same_tech: bool,
    /// Mean predictive log-likelihood of the aligned KAT-GP on the probe
    /// (NaN when selection fell back without scoring).
    pub alignment: f64,
    /// Number of evaluations in the source archive.
    pub n_evals: usize,
}

/// The objective column a source GP models: its metric index and whether
/// larger values are worse (see [`larger_is_worse`]).
type ObjectiveKey = (usize, bool);

/// An archived run held in memory, with the objective source GPs that
/// alignment scoring has fitted on it so far.
#[derive(Debug)]
struct BankedRun {
    history: RunHistory,
    /// Fitted source GPs by objective column (`None`: the fit failed).
    /// Filled lazily by whichever worker scores the run first; the GP is a
    /// pure function of the run and the key, so which one does not matter.
    source_gps: Mutex<Vec<(ObjectiveKey, Option<Arc<Gp>>)>>,
}

impl BankedRun {
    fn new(history: RunHistory) -> Self {
        BankedRun {
            history,
            source_gps: Mutex::new(Vec::new()),
        }
    }

    /// The GP on this run's objective column `obj` under `specs`, fitted
    /// on first use and cached. The lock is per run and held across the
    /// fit, so concurrent selections fit each run once.
    fn source_gp(&self, specs: &[Spec], obj: usize) -> Option<Arc<Gp>> {
        let key = (obj, larger_is_worse(specs, obj));
        let mut gps = self
            .source_gps
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, gp)) = gps.iter().find(|(k, _)| *k == key) {
            return gp.clone();
        }
        let gp = fit_source_gp(&self.history, specs, obj).map(Arc::new);
        gps.push((key, gp.clone()));
        gp
    }

    fn cached_source_gps(&self) -> usize {
        self.source_gps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(_, gp)| gp.is_some())
            .count()
    }
}

/// An archive held in memory: its entry and its decoded runs, validated
/// at open or appended by this process since.
#[derive(Debug)]
struct Archive {
    entry: BankEntry,
    runs: Vec<BankedRun>,
}

/// A knowledge bank rooted at a directory.
#[derive(Debug)]
pub struct Bank {
    dir: PathBuf,
    /// Every archive, sorted by file name.
    archives: Vec<Archive>,
    /// Files quarantined while opening this bank (recovery events this
    /// process witnessed; see [`Bank::quarantined_files`] for the
    /// persistent on-disk count).
    quarantined_on_open: usize,
    /// Armed `bank_write` / `bank_torn` failpoints (none by default).
    failpoints: Failpoints,
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> BankError {
    BankError::Io(format!("{what} {}: {e}", path.display()))
}

/// One write attempt: temp file in the same directory, flush, then rename
/// over the destination. The `bank_write` failpoint injects an I/O error
/// here; `bank_torn` simulates a crash that bypassed the temp+rename
/// protocol and left a truncated destination file (reported as success,
/// like a real torn write would be).
fn atomic_write_once(path: &Path, content: &str, fp: &Failpoints) -> Result<(), BankError> {
    if fp.countdown("bank_write") {
        return Err(BankError::Io(format!(
            "injected bank_write failure for {}",
            path.display()
        )));
    }
    if fp.countdown("bank_torn") {
        let half = &content.as_bytes()[..content.len() / 2];
        fs::write(path, half).map_err(|e| io_err(path, "torn write", &e))?;
        return Ok(());
    }
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", &e))?;
        f.write_all(content.as_bytes())
            .map_err(|e| io_err(&tmp, "write", &e))?;
        f.flush().map_err(|e| io_err(&tmp, "flush", &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, "rename into", &e))
}

/// Atomic write with bounded retry: transient I/O errors back off
/// exponentially ([`WRITE_BACKOFF`], doubling) for up to
/// [`WRITE_ATTEMPTS`] attempts before the last error surfaces.
fn atomic_write(path: &Path, content: &str, fp: &Failpoints) -> Result<(), BankError> {
    let mut delay = WRITE_BACKOFF;
    let mut attempt = 1;
    loop {
        match atomic_write_once(path, content, fp) {
            Ok(()) => return Ok(()),
            Err(BankError::Io(_)) if attempt < WRITE_ATTEMPTS => {
                std::thread::sleep(delay);
                delay *= 2;
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Moves a damaged file aside to `<file name>.quarantine` (clobbering any
/// previous quarantine of the same file) so recovery preserves the bytes
/// instead of deleting evidence.
fn quarantine(path: &Path) -> Result<PathBuf, BankError> {
    let mut name = path
        .file_name()
        .ok_or_else(|| BankError::Io(format!("no file name in {}", path.display())))?
        .to_os_string();
    name.push(".quarantine");
    let dest = path.with_file_name(name);
    fs::rename(path, &dest).map_err(|e| io_err(path, "quarantine", &e))?;
    Ok(dest)
}

fn archive_file_name(scenario: &str, tech: &str) -> String {
    format!("{scenario}__{tech}.json")
}

/// An archive file's contents with its schema checked and its runs not
/// yet decoded.
struct ArchiveDoc {
    scenario: String,
    tech: String,
    runs: Vec<Json>,
}

/// Reads an archive file and checks its schema: the version, the
/// `scenario` and `tech` fields and the run list. [`decode_runs`] decodes
/// the runs.
fn read_archive(path: &Path) -> Result<ArchiveDoc, BankError> {
    let corrupt = |what: String| BankError::Corrupt(format!("{}: {what}", path.display()));
    let text = fs::read_to_string(path).map_err(|e| io_err(path, "read", &e))?;
    let doc = Json::parse(&text).map_err(corrupt)?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("missing 'version'".to_string()))?;
    if version > BANK_VERSION {
        return Err(corrupt(format!(
            "archive version {version} is newer than supported {BANK_VERSION}"
        )));
    }
    let field = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| corrupt(format!("missing '{key}'")))
    };
    let (scenario, tech) = (field("scenario")?, field("tech")?);
    let runs = match doc {
        Json::Obj(pairs) => pairs.into_iter().find(|(k, _)| k == "runs"),
        _ => None,
    };
    let Some((_, Json::Arr(runs))) = runs else {
        return Err(corrupt("missing 'runs'".to_string()));
    };
    Ok(ArchiveDoc {
        scenario,
        tech,
        runs,
    })
}

/// Decodes an archive's runs; `path` names the file in errors.
fn decode_runs(path: &Path, runs: &[Json]) -> Result<Vec<RunHistory>, BankError> {
    runs.iter()
        .map(|run| {
            history_from_json(run)
                .map_err(|e| BankError::Corrupt(format!("{}: {e}", path.display())))
        })
        .collect()
}

impl Bank {
    /// Opens (creating if needed) a bank at `dir`, validating every
    /// archive file and **recovering** from damage instead of refusing:
    /// corrupt/torn/newer-version archives are quarantined (renamed to
    /// `<name>.quarantine`) and the bank holds the surviving archives, in
    /// file-name order. An open that finds no damage writes nothing.
    ///
    /// # Errors
    ///
    /// [`BankError::Io`] when the directory cannot be created or read, or
    /// when quarantining fails — i.e. only when the filesystem itself
    /// refuses; damaged *content* never fails an open.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, BankError> {
        Bank::open_with_failpoints(dir, Failpoints::default())
    }

    /// [`Bank::open`] with armed `bank_write` / `bank_torn` failpoints,
    /// consulted by every archive write this bank makes.
    ///
    /// # Errors
    ///
    /// As [`Bank::open`].
    pub fn open_with_failpoints(
        dir: impl Into<PathBuf>,
        failpoints: Failpoints,
    ) -> Result<Self, BankError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create bank dir", &e))?;
        let mut files: Vec<String> = Vec::new();
        let listing = fs::read_dir(&dir).map_err(|e| io_err(&dir, "read bank dir", &e))?;
        for item in listing {
            let item = item.map_err(|e| io_err(&dir, "read bank dir", &e))?;
            let name = item.file_name().to_string_lossy().into_owned();
            // `index.json` is the manifest older banks kept, not an archive.
            if name.ends_with(".json") && name != "index.json" {
                files.push(name);
            }
        }
        files.sort();
        let mut archives = Vec::with_capacity(files.len());
        let mut quarantined_on_open = 0;
        for file in files {
            let path = dir.join(&file);
            let read = read_archive(&path)
                .and_then(|doc| decode_runs(&path, &doc.runs).map(|runs| (doc, runs)));
            match read {
                Ok((doc, runs)) => archives.push(Archive {
                    entry: BankEntry {
                        scenario: doc.scenario,
                        tech: doc.tech,
                        file,
                        runs: runs.len(),
                    },
                    runs: runs.into_iter().map(BankedRun::new).collect(),
                }),
                Err(BankError::Io(e)) => return Err(BankError::Io(e)),
                Err(BankError::Corrupt(_)) => {
                    quarantine(&path)?;
                    quarantined_on_open += 1;
                }
            }
        }
        Ok(Bank {
            dir,
            archives,
            quarantined_on_open,
            failpoints,
        })
    }

    /// Number of files this open quarantined while recovering.
    #[must_use]
    pub fn quarantined_on_open(&self) -> usize {
        self.quarantined_on_open
    }

    /// Number of `.quarantine` files currently in the bank directory —
    /// the persistent record of every recovery, surfaced by the daemon's
    /// health report.
    #[must_use]
    pub(crate) fn quarantined_files(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|listing| {
                listing
                    .flatten()
                    .filter(|item| item.file_name().to_string_lossy().ends_with(".quarantine"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Number of objective source GPs the in-memory runs hold, fitted by
    /// [`Bank::select_source`] since open — surfaced by the daemon's
    /// health report so the cache's memory is visible.
    #[must_use]
    pub(crate) fn cached_source_gps(&self) -> usize {
        self.archives
            .iter()
            .flat_map(|a| &a.runs)
            .map(BankedRun::cached_source_gps)
            .sum()
    }

    /// Total archived runs across all entries.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.archives.iter().map(|a| a.entry.runs).sum()
    }

    /// The bank's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every archive's entry, in file-name order.
    #[must_use]
    pub(crate) fn entries(&self) -> Vec<&BankEntry> {
        self.archives.iter().map(|a| &a.entry).collect()
    }

    /// The entries of one scenario (any tech node), in file-name order.
    #[must_use]
    pub fn candidates(&self, scenario: &str) -> Vec<&BankEntry> {
        self.archives
            .iter()
            .map(|a| &a.entry)
            .filter(|e| e.scenario == scenario)
            .collect()
    }

    /// `true` when the bank holds at least one run for the scenario.
    #[must_use]
    pub fn has_candidates(&self, scenario: &str) -> bool {
        self.archives
            .iter()
            .any(|a| a.entry.scenario == scenario && a.entry.runs > 0)
    }

    /// Appends a completed run to the `scenario×tech` archive, creating the
    /// file on first use. The archive is the one file written: atomically,
    /// with retries and backoff on transient I/O errors. An existing
    /// archive found corrupt (e.g. torn by a crash since open) is
    /// quarantined and the archive restarts from this run rather than
    /// failing the append. Once the archive is written, the bank's
    /// in-memory view of it is what a fresh open would decode: the run is
    /// added (a new archive's entry takes its place in file-name order),
    /// and when the file held a different number of runs than this bank
    /// (another process appended to it, or it restarted) the view is
    /// rebuilt from the file first.
    ///
    /// # Errors
    ///
    /// [`BankError::Io`] when the archive cannot be written (after
    /// retries) or the damaged archive cannot be quarantined.
    pub fn append(
        &mut self,
        scenario: &str,
        tech: &str,
        history: &RunHistory,
    ) -> Result<(), BankError> {
        let file = archive_file_name(scenario, tech);
        let path = self.dir.join(&file);
        let slot = self
            .archives
            .binary_search_by(|a| a.entry.file.as_str().cmp(&file));
        let held = slot.map_or(0, |k| self.archives[k].runs.len());
        // The file's runs and, when the in-memory view holds a different
        // number, the runs to rebuild the view from.
        let read = if path.exists() {
            read_archive(&path).and_then(|doc| {
                let reload = (doc.runs.len() != held)
                    .then(|| decode_runs(&path, &doc.runs))
                    .transpose()?;
                Ok((doc.runs, reload))
            })
        } else {
            Ok((Vec::new(), Some(Vec::new())))
        };
        let (mut runs, reload) = match read {
            Ok(read) => read,
            Err(BankError::Corrupt(_)) => {
                quarantine(&path)?;
                (Vec::new(), Some(Vec::new()))
            }
            Err(e) => return Err(e),
        };
        let run = history_to_json(history);
        let decoded = history_from_json(&run)
            .map_err(|e| BankError::Corrupt(format!("{}: {e}", path.display())))?;
        runs.push(run);
        let doc = Json::obj(vec![
            ("version", Json::Num(BANK_VERSION as f64)),
            ("scenario", Json::str(scenario)),
            ("tech", Json::str(tech)),
            ("runs", Json::Arr(runs)),
        ]);
        atomic_write(&path, &doc.to_string(), &self.failpoints)?;

        let k = slot.unwrap_or_else(|k| {
            let entry = BankEntry {
                scenario: scenario.to_string(),
                tech: tech.to_string(),
                file,
                runs: 0,
            };
            self.archives.insert(
                k,
                Archive {
                    entry,
                    runs: Vec::new(),
                },
            );
            k
        });
        let archive = &mut self.archives[k];
        if let Some(reload) = reload {
            archive.runs = reload.into_iter().map(BankedRun::new).collect();
        }
        archive.runs.push(BankedRun::new(decoded));
        archive.entry.runs = archive.runs.len();
        Ok(())
    }

    /// Loads every archived run for a `scenario×tech` from its file on disk.
    ///
    /// # Errors
    ///
    /// [`BankError`] when the archive exists but cannot be read or parsed.
    pub fn runs(&self, scenario: &str, tech: &str) -> Result<Vec<RunHistory>, BankError> {
        let path = self.dir.join(archive_file_name(scenario, tech));
        if !path.exists() {
            return Ok(Vec::new());
        }
        decode_runs(&path, &read_archive(&path)?.runs)
    }

    /// Selects the best-aligned archived run of `scenario` (any tech node)
    /// as a transfer source for a request on `target_tech`, given a probe
    /// history of real evaluations on the target problem.
    ///
    /// Candidates are scored by fitting a cheap GP to the candidate's
    /// objective column, aligning a KAT-GP from it onto the probe, and
    /// taking the KAT-GP's mean predictive log-likelihood on the probe.
    /// When the probe has fewer than `MIN_PROBE_POINTS` finite objective
    /// values (or every fit fails), selection falls back to the largest
    /// archived run, same tech node first — warm data beats no data even
    /// unscored.
    ///
    /// Selection reads no files: it ranks the in-memory runs (what this
    /// process validated at open or appended since). An archive torn on
    /// disk since is seen at the next open, and runs another process
    /// appended are seen at the next open or this bank's next append to
    /// that archive. Each run's objective GP is
    /// fitted on first use and cached, so only the KAT-GP alignments are
    /// refitted per request. Safe to call from several workers at once.
    ///
    /// Returns `None` when the bank holds no runs for the scenario.
    #[must_use]
    pub fn select_source(
        &self,
        scenario: &str,
        target_tech: &str,
        specs: &[Spec],
        probe: &RunHistory,
    ) -> Option<(SourceData, SourceChoice)> {
        // Collect (tech, run) candidates, same-tech archives first so ties
        // and fallbacks prefer them.
        let mut archives: Vec<&Archive> = self
            .archives
            .iter()
            .filter(|a| a.entry.scenario == scenario)
            .collect();
        archives.sort_by_key(|a| a.entry.tech != target_tech);
        let runs: Vec<(&str, &BankedRun)> = archives
            .iter()
            .flat_map(|a| a.runs.iter().map(|run| (a.entry.tech.as_str(), run)))
            .filter(|(_, run)| !run.history.is_empty())
            .collect();
        if runs.is_empty() {
            return None;
        }

        let obj = objective_index(specs);
        let probe_pts = probe_objective(probe, obj);
        let mut best: Option<(f64, usize)> = None;
        if probe_pts.len() >= MIN_PROBE_POINTS {
            let (probe_xs, probe_ys): (Vec<Vec<f64>>, Vec<f64>) = probe_pts.into_iter().unzip();
            for (i, (_, run)) in runs.iter().enumerate() {
                let Some(score) = alignment_score(run, specs, obj, &probe_xs, &probe_ys) else {
                    continue;
                };
                if best.is_none_or(|(b, _)| score > b) {
                    best = Some((score, i));
                }
            }
        }
        // Fallback: the longest run, the first of equals — so in
        // tech-preference order.
        let (alignment, idx) = best.unwrap_or_else(|| {
            let idx = runs
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, run))| std::cmp::Reverse(run.history.len()))
                .map(|(i, _)| i)
                .unwrap_or(0);
            (f64::NAN, idx)
        });
        let (tech, run) = runs[idx];
        let source = SourceData::from_history(&run.history, specs);
        let choice = SourceChoice {
            label: run.history.problem.clone(),
            tech: tech.to_string(),
            same_tech: tech == target_tech,
            alignment,
            n_evals: run.history.len(),
        };
        Some((source, choice))
    }
}

/// Metric index of the objective row in a spec table (0 if absent — every
/// registered problem has one).
fn objective_index(specs: &[Spec]) -> usize {
    specs
        .iter()
        .find_map(|s| match s.kind {
            SpecKind::Objective(Goal::Maximize | Goal::Minimize) => Some(s.metric),
            _ => None,
        })
        .unwrap_or(0)
}

/// Probe `(x, y_obj)` pairs with a finite objective metric.
fn probe_objective(probe: &RunHistory, obj: usize) -> Vec<(Vec<f64>, f64)> {
    probe
        .evals
        .iter()
        .filter(|e| obj < e.metrics.values().len() && e.metrics.get(obj).is_finite())
        .map(|e| (e.x.clone(), e.metrics.get(obj)))
        .collect()
}

/// The source GP alignment scoring aligns from: a fast-profile ARD GP on
/// the run's objective column `obj` (imputed per `specs`), seeded by the
/// run. `None` when the fit fails.
fn fit_source_gp(run: &RunHistory, specs: &[Spec], obj: usize) -> Option<Gp> {
    let source = SourceData::from_history(run, specs);
    let col = source.columns.get(obj)?;
    let gp_cfg = GpConfig {
        seed: run.seed,
        ..GpConfig::fast()
    };
    Gp::fit(
        KernelSpec::ArdRbf { dim: source.dim },
        &source.xs,
        col,
        &gp_cfg,
    )
    .ok()
}

/// Alignment of one candidate run to the probe: the run's cached source GP
/// → KAT-GP aligned onto *half* the probe → mean predictive
/// log-likelihood on the **held-out** half. Scoring on held-out points is
/// essential: the KAT encoder/decoder is flexible enough to fit any few
/// training points from any source, so in-sample likelihood measures
/// model capacity, while held-out likelihood measures whether the source
/// archive actually generalises onto the target. `None` when either fit
/// fails.
fn alignment_score(
    run: &BankedRun,
    specs: &[Spec],
    obj: usize,
    probe_xs: &[Vec<f64>],
    probe_ys: &[f64],
) -> Option<f64> {
    let source_gp = run.source_gp(specs, obj)?;
    let run = &run.history;
    let kat_cfg = KatConfig {
        seed: run.seed,
        ..KatConfig::fast()
    };
    // Even-indexed probe points fit the alignment; odd-indexed score it.
    let (mut fit_xs, mut fit_ys) = (Vec::new(), Vec::new());
    let (mut held_xs, mut held_ys) = (Vec::new(), Vec::new());
    for (i, (x, &y)) in probe_xs.iter().zip(probe_ys).enumerate() {
        if i % 2 == 0 {
            fit_xs.push(x.clone());
            fit_ys.push(y);
        } else {
            held_xs.push(x.clone());
            held_ys.push(y);
        }
    }
    let kat = KatGp::fit(&source_gp, &fit_xs, &fit_ys, &kat_cfg).ok()?;
    let ll = kat.mean_log_likelihood(&held_xs, &held_ys);
    ll.is_finite().then_some(ll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kato::{BoSettings, Kato, Mode};
    use kato_circuits::{Metrics, SizingProblem, VarSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kato_bank_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// 1-D toy: maximise `1−(x−c)²` s.t. `x ≥ 0.2`; the centre `c`
    /// distinguishes "tech nodes". With `flat`, the objective carries no
    /// information at all — a constant response that no encoder/decoder
    /// pair can align onto a varying target (the KAT decoder of a constant
    /// is a constant), the model of an archive whose simulations returned
    /// garbage.
    struct Toy {
        c: f64,
        flat: bool,
        name: String,
        vars: Vec<VarSpec>,
        specs: Vec<Spec>,
    }

    impl Toy {
        fn new(c: f64, name: &str) -> Self {
            Toy {
                c,
                flat: false,
                name: name.to_string(),
                vars: vec![VarSpec::lin("a", 0.0, 1.0)],
                specs: vec![
                    Spec {
                        metric: 0,
                        kind: SpecKind::Objective(Goal::Maximize),
                    },
                    Spec {
                        metric: 1,
                        kind: SpecKind::GreaterEq(0.2),
                    },
                ],
            }
        }
    }

    impl SizingProblem for Toy {
        fn name(&self) -> String {
            self.name.clone()
        }
        fn variables(&self) -> &[VarSpec] {
            &self.vars
        }
        fn metric_names(&self) -> &[&'static str] {
            &["obj", "con"]
        }
        fn specs(&self) -> &[Spec] {
            &self.specs
        }
        fn evaluate(&self, x: &[f64]) -> Metrics {
            let obj = if self.flat {
                0.3
            } else {
                1.0 - (x[0] - self.c).powi(2)
            };
            Metrics::new(vec![obj, x[0]])
        }
        fn expert_design(&self) -> Vec<f64> {
            vec![self.c]
        }
    }

    fn short_run(problem: &dyn SizingProblem, seed: u64) -> RunHistory {
        Kato::new(BoSettings::quick(16, seed)).run(problem, Mode::Constrained)
    }

    /// A spread archive: `n` random designs evaluated on `problem`. An
    /// optimiser trace clusters near its optimum, which leaves the source
    /// GP extrapolating (confidently wrong) over most of the space; random
    /// coverage is what makes alignment quality attributable to the
    /// *source physics* rather than to where the source run happened to
    /// dwell.
    fn spread_run(problem: &dyn SizingProblem, n: usize, seed: u64) -> RunHistory {
        let mut h = RunHistory::new(&problem.name(), "KATO", seed);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for _ in 0..n {
            let x = kato_circuits::random_design(problem.dim(), &mut rng);
            h.evaluate_and_push(problem, &Mode::Constrained, x);
        }
        h
    }

    #[test]
    fn append_then_reload_roundtrips_runs() {
        let dir = tmp_dir("roundtrip");
        let toy = Toy::new(0.6, "toy_180nm");
        let run = short_run(&toy, 3);
        {
            let mut bank = Bank::open(&dir).unwrap();
            bank.append("toy", "180nm", &run).unwrap();
            bank.append("toy", "180nm", &short_run(&toy, 5)).unwrap();
        }
        // Fresh open reads the manifest back from disk.
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.entries()[0].runs, 2);
        assert!(bank.has_candidates("toy"));
        assert!(!bank.has_candidates("other"));
        let runs = bank.runs("toy", "180nm").unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].evals.len(), run.evals.len());
        assert_eq!(runs[0].evals[0].x, run.evals[0].x);
        assert!(bank.runs("toy", "40nm").unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_source_prefers_the_aligned_archive() {
        let dir = tmp_dir("select");
        let near = Toy::new(0.55, "toy_180nm"); // close to the target physics
        let mut far = Toy::new(0.05, "toy_28nm"); // zero-information archive
        far.flat = true;
        let target = Toy::new(0.6, "toy_40nm");
        let mut bank = Bank::open(&dir).unwrap();
        bank.append("toy", "180nm", &spread_run(&near, 24, 3))
            .unwrap();
        bank.append("toy", "28nm", &spread_run(&far, 24, 4))
            .unwrap();

        let mut probe = RunHistory::new(&target.name(), "probe", 1);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        for _ in 0..16 {
            let x = kato_circuits::random_design(1, &mut rng);
            probe.evaluate_and_push(&target, &Mode::Constrained, x);
        }
        let (source, choice) = bank
            .select_source("toy", "40nm", target.specs(), &probe)
            .unwrap();
        assert_eq!(choice.tech, "180nm", "alignment {:.3}", choice.alignment);
        assert_eq!(source.label, "toy_180nm");
        assert!(!choice.same_tech);
        assert!(choice.alignment.is_finite());
        assert!(choice.n_evals > 0);
        // Unknown scenario → no source.
        assert!(bank
            .select_source("nope", "40nm", target.specs(), &probe)
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_source_falls_back_without_probe_data() {
        let dir = tmp_dir("fallback");
        let toy = Toy::new(0.5, "toy_180nm");
        let mut bank = Bank::open(&dir).unwrap();
        bank.append("toy", "180nm", &short_run(&toy, 9)).unwrap();
        // Empty probe: too few points to score → fallback still warm-starts.
        let probe = RunHistory::new("toy_40nm", "probe", 1);
        let (source, choice) = bank
            .select_source("toy", "40nm", toy.specs(), &probe)
            .unwrap();
        assert!(choice.alignment.is_nan());
        assert_eq!(source.xs.len(), choice.n_evals);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fallback_tie_goes_to_the_first_run_in_tech_order() {
        // Equal-length archives at both nodes and a probe too small to
        // score: the fallback must take the same-node run, which leads
        // the tech-preference order, not the last of the longest.
        let dir = tmp_dir("tie");
        let at_180 = Toy::new(0.5, "toy_180nm");
        let at_40 = Toy::new(0.55, "toy_40nm");
        let mut bank = Bank::open(&dir).unwrap();
        bank.append("toy", "180nm", &spread_run(&at_180, 10, 3))
            .unwrap();
        bank.append("toy", "40nm", &spread_run(&at_40, 10, 4))
            .unwrap();
        let mut probe = RunHistory::new("toy_40nm", "probe", 1);
        probe.evaluate_and_push(&at_40, &Mode::Constrained, vec![0.3]);
        probe.evaluate_and_push(&at_40, &Mode::Constrained, vec![0.7]);
        for (tech, label) in [("40nm", "toy_40nm"), ("180nm", "toy_180nm")] {
            let (source, choice) = bank
                .select_source("toy", tech, at_40.specs(), &probe)
                .unwrap();
            assert!(choice.alignment.is_nan());
            assert!(choice.same_tech, "request on {tech} took {}", choice.tech);
            assert_eq!(choice.tech, tech);
            assert_eq!(source.label, label);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn long_lived_bank_selects_like_a_fresh_open() {
        // After every append, the bank that appended (in-memory runs,
        // source GPs cached by earlier selections) and a bank freshly
        // opened on the same directory list the same entries and pick the
        // same source, bitwise. The last two appends create archives in
        // reverse file-name order, the second sorting before every other.
        let dir = tmp_dir("long_lived");
        let target = Toy::new(0.6, "toy_40nm");
        let mut probe = RunHistory::new(&target.name(), "probe", 1);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        for _ in 0..10 {
            let x = kato_circuits::random_design(1, &mut rng);
            probe.evaluate_and_push(&target, &Mode::Constrained, x);
        }
        let mut bank = Bank::open(&dir).unwrap();
        let techs = ["180nm", "28nm", "180nm", "28nm", "65nm", "130nm"];
        for (k, tech) in (0..).zip(techs) {
            let toy = Toy::new(0.3 + 0.1 * k as f64, &format!("toy_{tech}_{k}"));
            bank.append("toy", tech, &spread_run(&toy, 10 + k as usize, k))
                .unwrap();
            let (_, live) = bank
                .select_source("toy", "40nm", target.specs(), &probe)
                .unwrap();
            let fresh = Bank::open(&dir).unwrap();
            assert_eq!(bank.entries(), fresh.entries(), "after {} appends", k + 1);
            let (_, cold) = fresh
                .select_source("toy", "40nm", target.specs(), &probe)
                .unwrap();
            assert_eq!(live.label, cold.label, "after {} appends", k + 1);
            assert_eq!(live.tech, cold.tech);
            assert_eq!(live.n_evals, cold.n_evals);
            assert_eq!(live.alignment.to_bits(), cold.alignment.to_bits());
            assert!(live.alignment.is_finite());
            assert_eq!(bank.cached_source_gps(), k as usize + 1);
            assert_eq!(fresh.cached_source_gps(), k as usize + 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_rebuilds_the_view_of_an_archive_another_handle_wrote() {
        // Two handles on one directory take turns appending to the same
        // archive. Each append finds runs on disk that its handle never
        // saw, rebuilds its view from the file, and then selects like a
        // fresh open, its entry counts matching the runs it ranks.
        let dir = tmp_dir("two_writers");
        let target = Toy::new(0.6, "toy_40nm");
        let mut probe = RunHistory::new(&target.name(), "probe", 1);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        for _ in 0..10 {
            let x = kato_circuits::random_design(1, &mut rng);
            probe.evaluate_and_push(&target, &Mode::Constrained, x);
        }
        let mut banks = [Bank::open(&dir).unwrap(), Bank::open(&dir).unwrap()];
        for k in 0..5u64 {
            let bank = &mut banks[k as usize % 2];
            let toy = Toy::new(0.3 + 0.1 * k as f64, &format!("toy_180nm_{k}"));
            bank.append("toy", "180nm", &spread_run(&toy, 10 + k as usize, k))
                .unwrap();
            assert_eq!(bank.entries()[0].runs, k as usize + 1);
            for (e, runs) in bank.archives.iter().map(|a| (&a.entry, &a.runs)) {
                assert_eq!(e.runs, runs.len(), "{} after {} appends", e.file, k + 1);
            }
            let (_, live) = bank
                .select_source("toy", "40nm", target.specs(), &probe)
                .unwrap();
            let (_, cold) = Bank::open(&dir)
                .unwrap()
                .select_source("toy", "40nm", target.specs(), &probe)
                .unwrap();
            assert_eq!(live.label, cold.label, "after {} appends", k + 1);
            assert_eq!(live.n_evals, cold.n_evals);
            assert_eq!(live.alignment.to_bits(), cold.alignment.to_bits());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_index_json_is_skipped_not_quarantined() {
        // Older banks kept an `index.json` manifest beside the archives.
        // A bank opened on such a directory leaves it alone: nothing is
        // quarantined, and selection matches the directory without it.
        let dir = tmp_dir("leftover_index");
        let toy = Toy::new(0.5, "toy_180nm");
        let target = Toy::new(0.6, "toy_40nm");
        let mut probe = RunHistory::new(&target.name(), "probe", 1);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        for _ in 0..10 {
            let x = kato_circuits::random_design(1, &mut rng);
            probe.evaluate_and_push(&target, &Mode::Constrained, x);
        }
        Bank::open(&dir)
            .unwrap()
            .append("toy", "180nm", &spread_run(&toy, 12, 3))
            .unwrap();
        let select = |bank: &Bank| {
            bank.select_source("toy", "40nm", target.specs(), &probe)
                .unwrap()
                .1
        };
        let without = select(&Bank::open(&dir).unwrap());
        fs::write(
            dir.join("index.json"),
            r#"{"version":1,"entries":[{"scenario":"toy","tech":"180nm","file":"toy__180nm.json","runs":1}]}"#,
        )
        .unwrap();
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 0);
        assert_eq!(bank.quarantined_files(), 0);
        assert!(dir.join("index.json").exists());
        assert_eq!(bank.entries().len(), 1);
        let with = select(&bank);
        assert_eq!(with.label, without.label);
        assert_eq!(with.tech, without.tech);
        assert_eq!(with.n_evals, without.n_evals);
        assert_eq!(with.alignment.to_bits(), without.alignment.to_bits());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_archive_is_quarantined_and_the_rest_survive() {
        let dir = tmp_dir("heal");
        let toy = Toy::new(0.5, "toy_180nm");
        {
            let mut bank = Bank::open(&dir).unwrap();
            bank.append("toy", "180nm", &spread_run(&toy, 12, 3))
                .unwrap();
            bank.append("toy", "28nm", &spread_run(&toy, 12, 4))
                .unwrap();
        }
        // Tear one archive. Open quarantines it, keeps the other, and the
        // bank still supplies a warm-start source.
        fs::write(dir.join("toy__28nm.json"), "{\"version\":1,\"runs\":[tru").unwrap();
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 1);
        assert!(dir.join("toy__28nm.json.quarantine").exists());
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.entries()[0].tech, "180nm");
        assert!(bank.has_candidates("toy"));
        let probe = RunHistory::new("toy_40nm", "probe", 1);
        let (_, choice) = bank
            .select_source("toy", "40nm", toy.specs(), &probe)
            .unwrap();
        assert_eq!(choice.tech, "180nm");
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.total_runs(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_failures_are_retried_and_torn_writes_heal() {
        let dir = tmp_dir("faults");
        let toy = Toy::new(0.5, "toy_180nm");
        // Two injected failures: both retried away within one append.
        {
            let fp = Failpoints::parse("bank_write=2");
            let mut bank = Bank::open_with_failpoints(&dir, fp).unwrap();
            bank.append("toy", "180nm", &short_run(&toy, 3)).unwrap();
            assert!(bank.failpoints.hits("bank_write") >= 3);
        }
        // A torn archive write: append reports success (as a real torn
        // write would), and the next open quarantines + heals.
        {
            let fp = Failpoints::parse("bank_torn=1");
            let mut bank = Bank::open_with_failpoints(&dir, fp).unwrap();
            bank.append("toy", "28nm", &short_run(&toy, 5)).unwrap();
            // This process believes the write landed: its in-memory view
            // still serves the run; the damage is seen at the next open.
            let probe = RunHistory::new("toy_28nm", "probe", 1);
            let (_, choice) = bank
                .select_source("toy", "28nm", toy.specs(), &probe)
                .unwrap();
            assert_eq!(choice.tech, "28nm");
        }
        let bank = Bank::open(&dir).unwrap();
        assert_eq!(bank.quarantined_on_open(), 1);
        assert_eq!(bank.entries().len(), 1);
        assert_eq!(bank.entries()[0].tech, "180nm");
        fs::remove_dir_all(&dir).unwrap();
    }
}
