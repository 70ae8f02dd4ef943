//! Golden reports: what `figures` prints from the telemetry groups,
//! pinned by artifact.
//!
//! `golden/telemetry.txt` and `golden/telemetry.jsonl` are the stdout
//! and the `--jsonl` trace of `figures --fig telemetry`;
//! `golden/fanout.txt` is `figures --fig fanout`. All three were
//! captured at the commit *before* the counter groups became
//! `counters!` tables, so a refactor of the metric types that changes
//! a printed count, drops a counter from a report or reorders the
//! trace fails here. The five sessions are deterministic (virtual
//! time, seeded faults); the one wall-clock field — the two figures of
//! the fan-out report's `shard flush wall:` line — is masked.
//!
//! After an intended change to a report, run the one writer:
//! `cargo test --release -p thinc-bench --test report_golden -- --ignored regenerate_golden`.

use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Runs the `figures` binary and returns its stdout.
fn figures(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs");
    assert!(out.status.success(), "figures {args:?} failed");
    String::from_utf8(out.stdout).expect("figures prints UTF-8")
}

/// `figures --fig telemetry`: its stdout and its JSONL trace.
fn telemetry_report() -> (String, String) {
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report_golden.jsonl");
    let path = trace.to_str().expect("UTF-8 temp path");
    let stdout = figures(&["--fig", "telemetry", "--jsonl", path]);
    (stdout, read(&trace))
}

/// `figures --fig fanout` with the wall-clock figures of its
/// `shard flush wall:` line replaced by `<wall>`.
fn fanout_report() -> String {
    figures(&["--fig", "fanout"])
        .lines()
        .map(|line| {
            if !line.starts_with("shard flush wall:") {
                return format!("{line}\n");
            }
            let masked: Vec<&str> = line
                .split(' ')
                .map(|word| if word.parse::<u64>().is_ok() { "<wall>" } else { word })
                .collect();
            format!("{}\n", masked.join(" "))
        })
        .collect()
}

/// Byte-for-byte equality with the golden file, failing at the first
/// line that moved rather than dumping both reports.
fn assert_pinned(got: &str, name: &str) {
    let want = read(&golden(name));
    for (i, (got, want)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "{name}, line {}", i + 1);
    }
    assert!(got == want, "{name}: {} bytes, golden has {}", got.len(), want.len());
}

#[test]
fn fanout_report_is_pinned() {
    assert_pinned(&fanout_report(), "fanout.txt");
}

/// The full-length sessions take about ten seconds optimized and three
/// minutes unoptimized, so a debug `cargo test` skips this one; CI runs
/// it with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "three minutes unoptimized; run with --release")]
fn telemetry_report_and_trace_are_pinned() {
    let (stdout, trace) = telemetry_report();
    assert_pinned(&stdout, "telemetry.txt");
    assert_pinned(&trace, "telemetry.jsonl");
}

#[test]
#[ignore = "writes the golden files; run after an intended report change"]
fn regenerate_golden() {
    let (stdout, trace) = telemetry_report();
    for (name, text) in [
        ("telemetry.txt", stdout),
        ("telemetry.jsonl", trace),
        ("fanout.txt", fanout_report()),
    ] {
        std::fs::write(golden(name), text).expect("golden directory is writable");
    }
}
