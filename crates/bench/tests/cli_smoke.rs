//! Smoke tests for the `kato` CLI binary: every subcommand must complete
//! against the real registry, and the `run` path must work end to end on
//! each of the new MNA testbenches with a small budget (one BO iteration
//! on top of the random init).

use std::process::Command;

fn kato() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kato"))
}

fn out_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("kato_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn list_shows_every_registered_scenario() {
    let out = kato().arg("list").output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "opamp2",
        "opamp3",
        "bandgap",
        "folded_cascode",
        "telescopic",
        "ldo",
    ] {
        assert!(text.contains(name), "list output missing {name}:\n{text}");
    }
    assert!(text.contains("ss_125c"), "corners missing:\n{text}");
}

#[test]
fn run_completes_on_each_new_testbench() {
    for scenario in ["folded_cascode", "telescopic", "ldo"] {
        let path = out_path(&format!("run_{scenario}.json"));
        let out = kato()
            .args([
                "run",
                scenario,
                "--budget",
                "15",
                "--seeds",
                "1",
                "--out",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{scenario}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(
            json.contains(&format!("\"scenario\":\"{scenario}\"")),
            "{json}"
        );
        assert!(json.contains("\"runs\":["), "{json}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn run_supports_tech_and_corner_flags() {
    let path = out_path("run_flags.json");
    let out = kato()
        .args([
            "run",
            "ldo",
            "--tech",
            "40nm",
            "--corner",
            "ss_125c",
            "--budget",
            "12",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"tech\":\"40nm\""), "{json}");
    assert!(json.contains("\"corner\":\"ss_125c\""), "{json}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_worst_corner_optimises_the_worst_case() {
    let path = out_path("run_worst.json");
    let out = kato()
        .args([
            "run",
            "telescopic",
            "--corner",
            "worst",
            "--budget",
            "12",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("run: telescopic_180nm_worstcase "), "{text}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"corner\":\"worst\""), "{json}");
    // Every simulation already covered every corner: no separate audit.
    assert!(json.contains("\"corner_audit\":null"), "{json}");
    assert!(json.contains("\"yield_samples\":null"), "{json}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_yield_mode_reports_its_configuration() {
    let path = out_path("run_yield.json");
    let out = kato()
        .args([
            "run",
            "opamp2",
            "--yield",
            "4",
            "--budget",
            "12",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("run: opamp2_180nm_yield4 "), "{text}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"yield_samples\":4"), "{json}");
    assert!(json.contains("\"yield_threshold\":0.7"), "{json}");
    assert!(json.contains("\"corner_audit\":null"), "{json}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_supports_backend_flag() {
    // A LUT-native scenario forced onto each backend explicitly.
    for backend in ["lut", "square_law"] {
        let path = out_path(&format!("run_backend_{backend}.json"));
        let out = kato()
            .args([
                "run",
                "switch",
                "--backend",
                backend,
                "--budget",
                "12",
                "--out",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(
            json.contains(&format!("\"backend\":\"{backend}\"")),
            "{json}"
        );
        std::fs::remove_file(&path).ok();
    }

    let out = kato()
        .args(["run", "switch", "--backend", "spice"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("square_law"), "{err}");

    // `transfer` does not own --backend: rejected, not swallowed.
    let out = kato()
        .args(["transfer", "opamp2", "opamp3", "--backend", "lut"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bandgap_rejects_a_backend_it_cannot_run_on() {
    // The bandgap has no backend choice: a LUT run would be square-law
    // under a LUT label.
    let out = kato()
        .args(["run", "bandgap", "--backend", "lut", "--budget", "12"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("'bandgap'"), "{err}");
    assert!(out.stdout.is_empty(), "a rejected run must not start");
}

#[test]
fn transfer_completes_and_writes_json() {
    let path = out_path("transfer.json");
    let out = kato()
        .args([
            "transfer",
            "opamp2",
            "folded_cascode",
            "--budget",
            "15",
            "--seeds",
            "1",
            "--source-n",
            "20",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"source\":\"opamp2_180nm\""), "{json}");
    assert!(json.contains("\"kato_tl\":["), "{json}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_scenario_is_a_clean_error() {
    let out = kato().args(["run", "opamp9"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("opamp9") && err.contains("available"), "{err}");
}

#[test]
fn foreign_subcommand_flags_are_rejected_not_swallowed() {
    // `transfer --corner ...` would otherwise silently run at TT.
    let out = kato()
        .args(["transfer", "opamp2", "opamp3", "--corner", "ss_125c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--corner") && err.contains("transfer"),
        "{err}"
    );

    let out = kato()
        .args(["run", "opamp2", "--source-n", "10"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn runs_that_would_do_nothing_are_rejected() {
    // A budget below 2 leaves the optimizer nothing to do, and an empty
    // source archive would run "KATO+TL" with no transfer at all.
    let transfer_empty_source = [
        "transfer",
        "opamp2",
        "opamp2",
        "--src-tech",
        "180nm",
        "--tech",
        "40nm",
        "--source-n",
        "0",
    ];
    let cases: [(&[&str], &str); 3] = [
        (&["run", "switch", "--budget", "0"], "--budget"),
        (&["run", "switch", "--budget", "1"], "--budget"),
        (&transfer_empty_source, "--source-n"),
    ];
    for (args, flag) in cases {
        let out = kato().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not start a run");
    }
}

#[test]
fn yield_sample_counts_outside_the_daemons_range_are_rejected() {
    // katod refuses the same counts in a request's "yield_samples".
    for n in ["0", "1025"] {
        let out = kato()
            .args(["run", "opamp2", "--yield", n, "--budget", "12"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--yield {n}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--yield must be in 1..=1024"), "{n}: {err}");
        assert!(out.stdout.is_empty(), "--yield {n} must not start a run");
    }
}

#[test]
fn help_prints_usage() {
    let out = kato().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("USAGE") && text.contains("transfer"),
        "{text}"
    );
}

#[test]
fn run_exits_quietly_when_stdout_closes() {
    // `kato run ... | head -1`: the reader goes away while the run still
    // has lines to print.
    let path = out_path("closed_stdout.json");
    let mut child = kato()
        .args(["run", "opamp2", "--budget", "12", "--out"])
        .arg(&path)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{:?}: {err}", out.status);
}
