//! Fault-tolerance integration suite: the serving stack under injected
//! panics, corrupt bank files and request deadlines.
//!
//! Complements `integration_bank.rs` (the happy-path warm-start flow) by
//! driving the same stack through its failure modes: the deterministic
//! failpoints of `kato_serve::faults`, hand-corrupted archive files, and
//! adversarial request lines (property-fuzzed parsers).
//!
//! Failpoints are values owned by the daemon or bank a test builds, so a
//! failpoint armed by one test never fires inside another running on a
//! parallel test thread.

use kato_serve::daemon::run_with_bank;
use kato_serve::{Bank, Daemon, Failpoints, Json, SizingRequest};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kato_faults_test_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// JSON-flavoured alphabet: random bytes mapped here reach much deeper
/// into the parser than raw bytes (which mostly die at the first token).
fn json_ish(bytes: &[u32]) -> String {
    const ALPHABET: &[u8] = br#"{}[]":,.0123456789eE+-truefalsenull \scenario"#;
    bytes
        .iter()
        .map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char)
        .collect()
}

proptest! {
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u32..256, 0..120),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&raw);
        // Ok or Err are both fine; a panic fails the test.
        let _ = Json::parse(&text);
        let _ = Json::parse(&json_ish(&bytes));
    }

    #[test]
    fn request_parse_rejects_garbage_cleanly(
        bytes in proptest::collection::vec(0u32..256, 0..120),
        cut in 0usize..200,
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let _ = SizingRequest::parse(&String::from_utf8_lossy(&raw));
        let _ = SizingRequest::parse(&json_ish(&bytes));
        // Truncations of a valid request must error, never panic.
        let valid = r#"{"id":"j","scenario":"opamp2","tech":"40nm","specs":{"gain_db":55.0},"seed":9,"budget":20}"#;
        let cut = cut.min(valid.len());
        if cut < valid.len() {
            prop_assert!(SizingRequest::parse(&valid[..cut]).is_err());
        }
    }
}

#[test]
fn batch_with_a_panicking_job_isolates_the_failure() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Seed 5 crashes every one of its simulator evaluations; 7 and 9 run
    // normally alongside it on the same pool.
    let mut daemon = Daemon::new().with_failpoints(Failpoints::parse("sim_panic=5"));
    let lines = vec![
        r#"{"id":"crash","scenario":"opamp2","budget":8,"seed":5}"#.to_string(),
        r#"{"id":"fine-1","scenario":"opamp2","budget":8,"seed":7}"#.to_string(),
        r#"{"id":"fine-2","scenario":"opamp2","budget":8,"seed":9}"#.to_string(),
    ];
    let out = daemon.handle_batch(&lines);
    std::panic::set_hook(prev_hook);
    assert_eq!(out.len(), 3);

    let crash = Json::parse(&out[0]).unwrap();
    assert_eq!(crash.get("status").unwrap().as_str(), Some("error"));
    assert_eq!(crash.get("id").unwrap().as_str(), Some("crash"));
    let msg = crash.get("error").unwrap().as_str().unwrap();
    assert!(msg.contains("panicked"), "{msg}");

    for (line, id) in [(&out[1], "fine-1"), (&out[2], "fine-2")] {
        let doc = Json::parse(line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"), "{line}");
        assert_eq!(doc.get("id").unwrap().as_str(), Some(id));
        assert_eq!(doc.get("n_evals").unwrap().as_f64(), Some(8.0));
    }
    assert!(daemon.failpoints().hits("sim_panic") >= 1);

    // The daemon is still serving: the crashed request succeeds once the
    // failpoint is disarmed, and health reflects the failure.
    let mut daemon = daemon.with_failpoints(Failpoints::default());
    let retry = daemon.handle_line(r#"{"id":"retry","scenario":"opamp2","budget":8,"seed":5}"#);
    let doc = Json::parse(&retry).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    let health = Json::parse(&daemon.handle_line(r#"{"op":"health"}"#)).unwrap();
    assert_eq!(health.get("jobs_failed").unwrap().as_f64(), Some(1.0));
    assert_eq!(health.get("jobs_served").unwrap().as_f64(), Some(3.0));
}

#[test]
fn corrupt_archive_still_warm_starts_and_shows_in_health() {
    let dir = tmp_dir("quarantine");

    // Populate the bank with a real 180 nm archive through the daemon.
    {
        let bank = Bank::open(&dir).unwrap();
        let mut daemon = Daemon::new().with_bank(bank);
        let resp = daemon.handle_line(r#"{"id":"seed","scenario":"opamp2","budget":12,"seed":3}"#);
        assert_eq!(
            Json::parse(&resp).unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
    }
    // Plant a corrupt sibling archive, as a crashed writer would leave.
    fs::write(dir.join("opamp2__40nm.json"), "{\"version\":1,\"runs\":[tr").unwrap();

    // A fresh daemon over the damaged bank: open heals (quarantines the
    // torn file, keeps the good archive) instead of refusing.
    let bank = Bank::open(&dir).unwrap();
    assert_eq!(bank.quarantined_on_open(), 1);
    let mut daemon = Daemon::new().with_bank(bank);

    let health = Json::parse(&daemon.handle_line(r#"{"op":"health"}"#)).unwrap();
    let bank_doc = health.get("bank").unwrap();
    assert_eq!(bank_doc.get("attached").unwrap().as_bool(), Some(true));
    assert_eq!(bank_doc.get("entries").unwrap().as_f64(), Some(1.0));
    assert_eq!(bank_doc.get("quarantined").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        bank_doc.get("quarantined_on_open").unwrap().as_f64(),
        Some(1.0)
    );

    // And the surviving archive still powers a cross-tech warm start.
    let resp = daemon
        .handle_line(r#"{"id":"warm","scenario":"opamp2","tech":"40nm","budget":12,"seed":4}"#);
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    let warm = doc.get("warm_start").unwrap();
    assert!(!warm.is_null(), "{resp}");
    assert_eq!(warm.get("source").unwrap().as_str(), Some("opamp2_180nm"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_bank_write_failures_are_invisible_to_callers() {
    let dir = tmp_dir("retry");
    // Two injected write failures are absorbed by the retry loop: the
    // append succeeds and the archive lands on disk intact.
    {
        let bank = Bank::open_with_failpoints(&dir, Failpoints::parse("bank_write=2")).unwrap();
        let mut daemon = Daemon::new().with_bank(bank);
        let resp = daemon.handle_line(r#"{"id":"w","scenario":"opamp2","budget":8,"seed":6}"#);
        assert_eq!(
            Json::parse(&resp).unwrap().get("status").unwrap().as_str(),
            Some("ok")
        );
    }
    let bank = Bank::open(&dir).unwrap();
    assert_eq!(bank.quarantined_on_open(), 0);
    assert_eq!(bank.total_runs(), 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exhausted_bank_write_retries_are_counted_in_health() {
    let dir = tmp_dir("append_errors");
    // Every write attempt of the one append fails: the caller still gets
    // its run, the cache keeps it, and health counts the lost append.
    let fp = Failpoints::parse(&format!("bank_write={}", kato_serve::bank::WRITE_ATTEMPTS));
    let bank = Bank::open_with_failpoints(&dir, fp).unwrap();
    let mut daemon = Daemon::new().with_bank(bank);
    let resp = daemon.handle_line(r#"{"id":"w","scenario":"opamp2","budget":8,"seed":6}"#);
    assert_eq!(
        Json::parse(&resp).unwrap().get("status").unwrap().as_str(),
        Some("ok")
    );
    assert_eq!(daemon.cache().len(), 1);
    let health = Json::parse(&daemon.handle_line(r#"{"op":"health"}"#)).unwrap();
    let bank_doc = health.get("bank").unwrap();
    assert_eq!(bank_doc.get("append_errors").unwrap().as_f64(), Some(1.0));
    assert_eq!(bank_doc.get("runs").unwrap().as_f64(), Some(0.0));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deadline_in_a_batch_degrades_only_its_own_job() {
    let mut daemon = Daemon::new();
    let lines = vec![
        r#"{"id":"slow","scenario":"opamp2","budget":30,"seed":21,"deadline_ms":1}"#.to_string(),
        r#"{"id":"full","scenario":"opamp2","budget":8,"seed":22}"#.to_string(),
        // Same cache key as `slow`, no deadline: its own full run.
        r#"{"id":"slow-full","scenario":"opamp2","budget":30,"seed":21}"#.to_string(),
    ];
    let out = daemon.handle_batch(&lines);
    let slow = Json::parse(&out[0]).unwrap();
    assert_eq!(slow.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(slow.get("degraded").unwrap().as_bool(), Some(true));
    assert!(slow.get("n_evals").unwrap().as_f64().unwrap() < 30.0);
    let full = Json::parse(&out[1]).unwrap();
    assert_eq!(full.get("degraded").unwrap().as_bool(), Some(false));
    assert_eq!(full.get("n_evals").unwrap().as_f64(), Some(8.0));
    let slow_full = Json::parse(&out[2]).unwrap();
    assert_eq!(slow_full.get("n_evals").unwrap().as_f64(), Some(30.0));
    assert_eq!(slow_full.get("degraded").unwrap().as_bool(), Some(false));
    assert_eq!(slow_full.get("cache_hit").unwrap().as_bool(), Some(false));
    // Only the full runs were cached; the degraded trace was discarded.
    assert_eq!(daemon.cache().len(), 2);
}

#[test]
fn an_expired_deadline_records_no_simulation_on_any_path() {
    use kato::{Kato, Mode};
    use kato_circuits::SizingProblem;
    use kato_serve::daemon::request_settings;
    use std::time::Instant;
    let registry = kato_circuits::ScenarioRegistry::standard();
    let req = SizingRequest::parse(r#"{"scenario":"opamp2","budget":10,"seed":2}"#).unwrap();
    let (problem, tech) = req.build_problem(&registry).unwrap();
    let problem: &dyn SizingProblem = &*problem;
    let settings = request_settings(req.budget, req.seed);
    let expired = || Some(Instant::now());
    let kato = || Kato::new(settings.clone()).with_deadline(expired());

    // The cold loop, from its random init.
    assert_eq!(kato().run(problem, Mode::Constrained).len(), 0);

    // The resumed loop keeps the history it was handed and adds nothing.
    let probe = Kato::new(request_settings(4, 3)).run(problem, Mode::Constrained);
    assert_eq!(probe.len(), 4);
    let resumed = kato().resume(problem, Mode::Constrained, probe);
    assert_eq!(resumed.len(), 4);

    // The bankless serving path.
    let (history, warm) =
        run_with_bank(None, "opamp2", &tech, problem, settings.clone(), expired());
    assert_eq!(history.len(), 0);
    assert!(warm.is_none());

    // The warm path: the bank holds an opamp2 archive, so the probe is
    // skipped as well as the loop.
    let dir = tmp_dir("expired_deadline");
    let mut bank = Bank::open(&dir).unwrap();
    let archived = Kato::new(request_settings(6, 5)).run(problem, Mode::Constrained);
    bank.append("opamp2", &tech, &archived).unwrap();
    assert!(bank.has_candidates("opamp2"));
    let (history, _) = run_with_bank(Some(&bank), "opamp2", &tech, problem, settings, expired());
    assert_eq!(history.len(), 0);
    let _ = fs::remove_dir_all(&dir);
}
