//! End-to-end tests for the `chaos` binary's failure-path contract:
//! a missing or corrupt schedule artifact exits nonzero with a
//! one-line diagnostic naming the path and the cause — never a
//! panic, never a zero exit, never a silent fallback run.

use std::path::PathBuf;
use std::process::Command;

fn chaos() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
}

/// A per-test temp path that never collides across parallel runs.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chaos-cli-{tag}-{}.json", std::process::id()))
}

#[test]
fn replay_of_a_missing_file_fails_with_a_one_line_diagnostic() {
    let path = temp_path("missing");
    let out = chaos()
        .arg("replay")
        .arg(&path)
        .output()
        .expect("spawn chaos");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let diag: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(diag.len(), 1, "expected one diagnostic line, got: {stderr}");
    assert!(
        diag[0].contains("cannot read") && diag[0].contains(path.to_str().unwrap()),
        "diagnostic must name the path and the cause: {}",
        diag[0]
    );
}

#[test]
fn replay_of_a_corrupt_file_fails_with_a_one_line_diagnostic() {
    let path = temp_path("corrupt");
    std::fs::write(&path, "{ \"seed\": 1, \"events\": [ {{{").expect("write corrupt artifact");
    let out = chaos()
        .arg("replay")
        .arg(&path)
        .output()
        .expect("spawn chaos");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let diag: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(diag.len(), 1, "expected one diagnostic line, got: {stderr}");
    assert!(
        diag[0].contains("cannot parse") && diag[0].contains(path.to_str().unwrap()),
        "diagnostic must name the path and the cause: {}",
        diag[0]
    );
}

#[test]
fn run_with_a_missing_schedule_file_fails_cleanly() {
    let path = temp_path("run-missing");
    let out = chaos()
        .arg("run")
        .arg("--schedule")
        .arg(&path)
        .output()
        .expect("spawn chaos");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read") && stderr.contains(path.to_str().unwrap()),
        "diagnostic must name the path and the cause: {stderr}"
    );
}

#[test]
fn soak_seed_ranges_are_inclusive() {
    let out = chaos()
        .args(["soak", "--seeds", "5..7,9", "--events", "4", "--workers", "1"])
        .args(["--out-dir", std::env::temp_dir().to_str().unwrap()])
        .output()
        .expect("spawn chaos");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let seeds: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("seed ")?.split(' ').next())
        .collect();
    assert_eq!(seeds, ["5", "6", "7", "9"], "{stdout}");
}

#[test]
fn run_executes_a_schedule_file_and_replay_accepts_the_exemplar() {
    // The checked-in crash-failover exemplar, via both subcommands.
    let schedule = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("schedules")
        .join("crash-failover.json");
    let out = chaos()
        .arg("run")
        .arg("--schedule")
        .arg(&schedule)
        .output()
        .expect("spawn chaos");
    assert!(
        out.status.success(),
        "run --schedule failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = chaos()
        .arg("replay")
        .arg(&schedule)
        .output()
        .expect("spawn chaos");
    assert!(
        out.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
