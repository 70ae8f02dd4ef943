//! The one table of checked-in schedules: every file under
//! `crates/chaos/schedules/` is a test case. A case runs at the file's
//! own flush worker count and at 1 and 4; its recorded outcome must
//! hold (the verdict `chaos replay` gives, [`RunReport::matches`]),
//! and the run must be the same run at every count.
//!
//! [`RunReport::matches`]: thinc_chaos::invariant::RunReport::matches

use std::path::Path;
use thinc_chaos::{run, schedule_from_json, schedule_to_json, Schedule};

/// Runs each of `files` (names in `dir`) and panics naming every file
/// that failed and why.
pub fn check(dir: &Path, files: &[&str]) {
    let failures: Vec<String> = files
        .iter()
        .filter_map(|f| check_one(&dir.join(f)).err().map(|e| format!("{f}: {e}")))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} schedule(s) failed:\n{}",
        failures.len(),
        files.len(),
        failures.join("\n")
    );
}

fn check_one(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let schedule = schedule_from_json(&text).map_err(|e| e.to_string())?;
    if schedule_to_json(&schedule) != text {
        return Err("not in the writer's form (one event per line, defaults left out)".into());
    }
    let mut first = None;
    for workers in [schedule.workers, 1, 4] {
        let report = run(&Schedule {
            workers,
            ..schedule.clone()
        });
        if !report.matches(schedule.expect_violation.as_deref()) {
            return Err(format!(
                "at {workers} worker(s), expecting {:?}: {:#?}",
                schedule.expect_violation, report.violations
            ));
        }
        let outcome = (
            report.violations,
            report.quiesces,
            report.slots_attached,
            report.quarantined,
        );
        if first.get_or_insert_with(|| outcome.clone()) != &outcome {
            return Err(format!("{workers} worker(s) changed the run"));
        }
    }
    Ok(())
}
