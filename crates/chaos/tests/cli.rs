//! End-to-end tests for the `chaos` binary's failure-path contract:
//! a missing or corrupt schedule artifact, an unknown option or a
//! value that does not parse exits nonzero with a one-line diagnostic
//! naming the cause — never a panic, never a zero exit, never a
//! silent fallback run.

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

/// Runs `chaos` and asserts it refused the invocation: exit 2, one
/// diagnostic line on stderr (returned), and no run on stdout.
fn refused(args: &[&str]) -> String {
    let out = chaos().args(args).output().expect("spawn chaos");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let diag: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(diag.len(), 1, "expected one diagnostic line, got: {stderr}");
    diag[0].to_string()
}

#[test]
fn a_malformed_number_is_refused_not_defaulted() {
    // A dash typed for `..` once ran the four default seeds and
    // passed.
    let diag = refused(&["soak", "--seeds", "1000-1399", "--events", "4"]);
    assert!(diag.contains("--seeds") && diag.contains("1000-1399"), "{diag}");
    for args in [
        ["soak", "--seeds", "5,x"],
        ["soak", "--seeds", "9..5"],
        ["soak", "--workers", "one"],
        ["run", "--seed", "0x10"],
        ["gen", "--events", "-3"],
    ] {
        refused(&args);
    }
}

#[test]
fn an_unknown_option_is_refused() {
    let diag = refused(&["run", "--seed", "1", "--frobnicate", "8"]);
    assert!(diag.contains("--frobnicate"), "{diag}");
    refused(&["soak", "--seed", "1"]);
    refused(&["run", "--seed"]);
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

/// Replays `text` as a schedule file and returns the refusal's one
/// line (exit 2, nothing run).
fn replay_refused(tag: &str, text: &str) -> String {
    let path = temp_path(tag);
    std::fs::write(&path, text).expect("write artifact");
    let path = path.to_str().unwrap().to_string();
    let diag = refused(&["replay", &path]);
    let _ = std::fs::remove_file(&path);
    assert!(
        diag.contains("cannot parse") && diag.contains(&path),
        "{diag}"
    );
    diag
}

#[test]
fn replay_of_a_deeply_nested_file_is_refused_not_a_stack_overflow() {
    // 200 000 open brackets recursed until the parser overflowed its
    // stack and the process aborted (exit 134).
    let diag = replay_refused("deep", &"[".repeat(200_000));
    assert!(diag.contains("nested deeper than"), "{diag}");
}

#[test]
fn replay_of_a_misspelt_key_is_refused_not_run_without_it() {
    // A misspelt key used to be ignored: this passing schedule, meant
    // to be held to a convergence violation, replayed as "all
    // invariants hold" and exited 0.
    let schedule = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("schedules/crash-failover.json");
    let text = std::fs::read_to_string(schedule).expect("read crash-failover.json");
    let misspelt = text.replacen('{', "{\"expect_violaton\": \"convergence\",", 1);
    let diag = replay_refused("misspelt", &misspelt);
    assert!(diag.contains("'expect_violaton'"), "{diag}");
}
