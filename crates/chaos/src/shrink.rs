//! Delta-debugging schedule minimization.
//!
//! A failing schedule from the generator is typically dozens of
//! events long; the bug usually needs three or four of them.
//! [`shrink`] runs classic ddmin over the event list — remove a
//! chunk, re-run, keep the removal if the *same invariant* still
//! fails — followed by a single-event elimination pass. Soundness
//! rests on the removal-tolerance contract of
//! [`ChaosEvent`](crate::event::ChaosEvent): any subsequence of a
//! valid schedule is itself a valid schedule, so every candidate the
//! shrinker proposes is runnable, and every run is deterministic, so
//! the oracle never flakes.

use crate::event::Schedule;
use crate::runner::run;

/// Upper bound on oracle runs a shrink may spend; generous for the
/// schedule sizes the generator emits, and a hard stop for
/// pathological hand-written inputs.
const MAX_ORACLE_RUNS: usize = 2_000;

/// Minimizes `schedule` while it keeps violating `invariant`.
///
/// The caller asserts that a full run of `schedule` violates
/// `invariant` (one of the names in [`crate::invariant::ALL`]); the
/// result is a schedule whose event list is 1-minimal with respect
/// to the oracle — removing any single remaining event makes the
/// violation disappear — with `expect_violation` stamped so the
/// artifact is replayable as a self-checking repro.
pub fn shrink(schedule: &Schedule, invariant: &str) -> Schedule {
    let mut budget = MAX_ORACLE_RUNS;
    let mut fails = |events: &[crate::event::ChaosEvent]| -> bool {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        run(&schedule.with_events(events.to_vec())).violated(invariant)
    };

    let mut events = schedule.events.clone();
    // ddmin: try removing ever-finer chunks.
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < events.len() {
            let end = (start + chunk).min(events.len());
            let mut candidate = Vec::with_capacity(events.len() - (end - start));
            candidate.extend_from_slice(&events[..start]);
            candidate.extend_from_slice(&events[end..]);
            if !candidate.is_empty() && fails(&candidate) {
                events = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= events.len() {
                break;
            }
            n = (n * 2).min(events.len());
        }
    }
    // Final polish: one-event elimination until a fixed point.
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < events.len() && events.len() > 1 {
            let mut candidate = events.clone();
            candidate.remove(i);
            if fails(&candidate) {
                events = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    let mut out = schedule.with_events(events);
    out.expect_violation = Some(invariant.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChaosEvent, Workload};
    use crate::invariant;

    /// A deliberately sabotaged schedule shrinks to a handful of
    /// events that still reproduce the convergence violation.
    #[test]
    fn shrinks_sabotage_to_a_minimal_repro() {
        let mut events = vec![ChaosEvent::Attach {
            viewport_w: 64,
            viewport_h: 48,
            version: thinc_protocol::PROTOCOL_VERSION,
        }];
        for i in 0..6 {
            events.push(ChaosEvent::Draw {
                workload: Workload::Solid,
                x: (i * 7) as i32,
                y: (i * 5) as i32,
                w: 20,
                h: 12,
                salt: 0xAB00 + i,
            });
            events.push(ChaosEvent::Flush {
                epochs: 2,
                step_ms: 40,
            });
        }
        events.push(ChaosEvent::SabotagePixel { slot: 0 });
        events.push(ChaosEvent::Quiesce);
        let schedule = crate::event::Schedule::base(9).with_events(events);

        let full = run(&schedule);
        assert!(full.violated(invariant::CONVERGENCE), "{}", full.summary());

        let minimal = shrink(&schedule, invariant::CONVERGENCE);
        assert!(minimal.events.len() <= 10, "{:?}", minimal.events);
        assert!(minimal
            .events
            .iter()
            .any(|e| matches!(e, ChaosEvent::SabotagePixel { .. })));
        assert_eq!(
            minimal.expect_violation.as_deref(),
            Some(invariant::CONVERGENCE)
        );
        // The minimized schedule reproduces deterministically.
        let a = run(&minimal);
        let b = run(&minimal);
        assert!(a.violated(invariant::CONVERGENCE));
        assert_eq!(a.violations, b.violations);
    }
}
