//! End-to-end acceptance tests for the chaos engine: determinism,
//! invariant catching, shrinking and the checked-in schedules, which
//! run as one table (`table/mod.rs`).

mod table;

use thinc_chaos::event::{ChaosEvent, Schedule, Workload};
use thinc_chaos::{generate, invariant, run, schedule_from_json, schedule_to_json, shrink};

#[test]
fn checked_in_schedules_replay_to_their_expected_outcomes() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("schedules");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list the schedules")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    table::check(&dir, &names);
}

#[test]
fn generated_seeds_pass_all_invariants() {
    for seed in [1, 7, 42] {
        let schedule = generate(seed, 30);
        let report = run(&schedule);
        assert!(
            report.passed(),
            "seed {seed} violated: {:?}",
            report.violations
        );
        assert!(report.quiesces >= 1, "every run ends with a quiesce check");
    }
}

#[test]
fn runs_are_deterministic_across_reruns_and_worker_counts() {
    let base = generate(0xFEED, 40);
    let first = run(&base);
    let again = run(&base);
    assert_eq!(first.violations, again.violations);
    assert_eq!(first.quiesces, again.quiesces);
    assert_eq!(first.slots_attached, again.slots_attached);
    // The worker-pool size must never change observable behavior:
    // same schedule, different parallelism, same verdicts.
    for workers in [2, 4] {
        let mut parallel = base.clone();
        parallel.workers = workers;
        let report = run(&parallel);
        assert_eq!(
            report.violations, first.violations,
            "workers={workers} changed the verdicts"
        );
        assert_eq!(report.quiesces, first.quiesces);
    }
}

#[test]
fn injected_sabotage_is_caught_and_shrinks_small() {
    // A deliberately planted violation buried in healthy traffic: the
    // engine must catch it, and the shrinker must cut the schedule to
    // a handful of events that still reproduce it deterministically.
    let mut events = Vec::new();
    for i in 0..4 {
        events.push(ChaosEvent::Attach {
            viewport_w: 64,
            viewport_h: 48,
            version: thinc_protocol::PROTOCOL_VERSION,
        });
        events.push(ChaosEvent::Draw {
            workload: Workload::Noise,
            x: i * 12,
            y: 4,
            w: 16,
            h: 16,
            salt: 1000 + i as u64,
        });
        events.push(ChaosEvent::Flush {
            epochs: 2,
            step_ms: 40,
        });
    }
    events.push(ChaosEvent::SabotagePixel { slot: 0 });
    events.push(ChaosEvent::Quiesce);
    let schedule = Schedule::base(0xBAD).with_events(events);
    let report = run(&schedule);
    assert!(
        report.violated(invariant::CONVERGENCE),
        "the planted divergence must be caught: {:?}",
        report.violations
    );
    let minimal = shrink(&schedule, invariant::CONVERGENCE);
    assert!(
        minimal.events.len() <= 10,
        "shrunk to {} events, want <= 10: {:?}",
        minimal.events.len(),
        minimal.events.iter().map(|e| e.tag()).collect::<Vec<_>>()
    );
    // The minimized schedule still reproduces, and does so on every
    // replay (the artifact contract).
    for _ in 0..2 {
        assert!(run(&minimal).violated(invariant::CONVERGENCE));
    }
}

#[test]
fn schedules_round_trip_through_json() {
    for seed in [3, 0xA5A5, u64::MAX] {
        let schedule = generate(seed, 50);
        let parsed = schedule_from_json(&schedule_to_json(&schedule)).expect("round trip parses");
        assert_eq!(parsed, schedule);
    }
}
