//! The `expect` block: what a scenario asserts beyond the invariant
//! catalog — "the corruption window produced CRC failures", "the
//! healthy owner never degrades", "the warm bill is under half the
//! cold one".
//!
//! An expectation reads one counter by its `counters!` row name,
//! prefixed with the group it lives in:
//!
//! | prefix | group | kept by |
//! |--------|-------|---------|
//! | `client.` | `ResilienceMetrics` | the slot's stream client |
//! | `server.` | `ResilienceMetrics` | the session's viewer of the slot (restarts at a takeover) |
//! | `buffer.` | `BufferStats` | that viewer's command buffer (restarts at a takeover) |
//! | `link.` | `ResilienceMetrics` | the slot's downlinks' `FaultStats`, folded by field name |
//! | `plane.` | `PlaneCounters` | the session's encode-once plane (no slot) |
//!
//! A slot's counters cover its whole life: a hard re-attach folds the
//! detached incarnation into the slot, as a resize does its client.
//! Each expectation carries one bound — at least, at most, exactly, or
//! `times × counter < other counter` — and is checked once, after the
//! run's final quiesce. A failed one is a [`Violation`] of
//! [`EXPECTATION`], so replay, shrink and soak treat it like any
//! other.

use crate::invariant::{Violation, EXPECTATION};
use thinc_telemetry::{BufferStats, PlaneCounters, ResilienceMetrics};

/// One counter: a `prefix.row` name and the slot it is read in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// The slot; `None` reads every slot (each must satisfy the
    /// bound), or the session for a `plane.` row.
    pub slot: Option<usize>,
    /// `prefix.row`, e.g. `client.crc_failures`.
    pub name: String,
}

/// The one bound an expectation puts on its counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// The counter is at least this.
    Min(u64),
    /// The counter is at most this.
    Max(u64),
    /// The counter is exactly this.
    Eq(u64),
    /// `times × counter < than` (`than` without a slot reads the
    /// counter's own slot).
    Below {
        /// The factor on the left side.
        times: u64,
        /// The right side.
        than: Counter,
    },
}

/// One assertion of a schedule's `expect` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// What is read.
    pub counter: Counter,
    /// What it must satisfy.
    pub bound: Bound,
    /// The claim in words, quoted when it fails.
    pub why: Option<String>,
}

/// Whether `name` addresses a row of one of the groups: the schema
/// check that keeps a misspelt counter from reading as zero.
pub(crate) fn known(name: &str) -> bool {
    read(
        name,
        Some(&SlotCounters::default()),
        &PlaneCounters::default(),
    )
    .is_some()
}

/// Everything one slot counted, group by group.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotCounters {
    /// The stream client's.
    pub(crate) client: ResilienceMetrics,
    /// The session viewer's.
    pub(crate) server: ResilienceMetrics,
    /// The viewer's command buffer's.
    pub(crate) buffer: BufferStats,
    /// The downlinks' fault tallies.
    pub(crate) link: ResilienceMetrics,
}

fn row<const N: usize>(names: [&str; N], values: [u64; N], row: &str) -> Option<u64> {
    names.iter().position(|n| *n == row).map(|i| values[i])
}

/// Reads `name` in `slot` (or the session's plane).
fn read(name: &str, slot: Option<&SlotCounters>, plane: &PlaneCounters) -> Option<u64> {
    let (prefix, r) = name.split_once('.')?;
    match (prefix, slot) {
        ("plane", _) => row(PlaneCounters::NAMES, plane.values(), r),
        ("client", Some(s)) => row(ResilienceMetrics::NAMES, s.client.values(), r),
        ("server", Some(s)) => row(ResilienceMetrics::NAMES, s.server.values(), r),
        ("link", Some(s)) => row(ResilienceMetrics::NAMES, s.link.values(), r),
        ("buffer", Some(s)) => row(BufferStats::NAMES, s.buffer.values(), r),
        _ => None,
    }
}

/// Checks every expectation against the counters of a finished run
/// (`slots[i]` is slot `i`'s) and reports each failure.
pub(crate) fn check(
    expect: &[Expectation],
    slots: &[SlotCounters],
    plane: &PlaneCounters,
) -> Vec<Violation> {
    let mut found = Vec::new();
    for e in expect {
        let on_plane = e.counter.name.starts_with("plane.");
        let targets: Vec<Option<usize>> = match e.counter.slot {
            _ if on_plane => vec![None],
            Some(si) => vec![Some(si)],
            None => (0..slots.len()).map(Some).collect(),
        };
        for si in targets {
            let at = |c: &Counter| {
                let slot = c.slot.or(si);
                let v = read(&c.name, slot.and_then(|i| slots.get(i)), plane);
                let place = slot.map_or_else(|| "session".to_string(), |i| format!("slot {i}"));
                (v, format!("{place} {}", c.name))
            };
            let (value, what) = at(&e.counter);
            let failed = match (&e.bound, value) {
                (_, None) => Some(format!("{what} does not exist")),
                (Bound::Min(m), Some(v)) => (v < *m).then(|| format!("{what} = {v}, want >= {m}")),
                (Bound::Max(m), Some(v)) => (v > *m).then(|| format!("{what} = {v}, want <= {m}")),
                (Bound::Eq(m), Some(v)) => (v != *m).then(|| format!("{what} = {v}, want {m}")),
                (Bound::Below { times, than }, Some(v)) => match at(than) {
                    (None, other) => Some(format!("{other} does not exist")),
                    (Some(b), other) => (v.saturating_mul(*times) >= b)
                        .then(|| format!("{times} x {what} ({v}) is not below {other} ({b})")),
                },
            };
            if let Some(detail) = failed {
                let why = e
                    .why
                    .as_deref()
                    .map(|w| format!(": {w}"))
                    .unwrap_or_default();
                found.push(Violation {
                    invariant: EXPECTATION.to_string(),
                    detail: format!("{detail}{why}"),
                });
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(slot: Option<usize>, name: &str) -> Counter {
        Counter {
            slot,
            name: name.into(),
        }
    }

    #[test]
    fn names_are_checked_against_their_group() {
        assert!(known("client.crc_failures"));
        assert!(known("buffer.sent_bytes"));
        assert!(known("plane.encodes"));
        assert!(!known("buffer.crc_failures"));
        assert!(!known("client.crc_failure"));
        assert!(!known("crc_failures"));
    }

    #[test]
    fn bounds_read_every_slot_and_compare_across_slots() {
        let mut a = SlotCounters::default();
        a.client.crc_failures = 3;
        a.buffer.sent_bytes = 100;
        let mut b = SlotCounters::default();
        b.buffer.sent_bytes = 250;
        let plane = PlaneCounters {
            shared_sends: 10,
            encodes: 4,
            ..PlaneCounters::default()
        };
        let slots = [a, b];
        let expect = |c, bound| Expectation {
            counter: c,
            bound,
            why: Some("because".into()),
        };
        let holds = [
            expect(counter(Some(0), "client.crc_failures"), Bound::Min(1)),
            expect(counter(None, "client.seq_gaps"), Bound::Eq(0)),
            expect(counter(Some(1), "client.crc_failures"), Bound::Max(0)),
            expect(
                counter(Some(0), "buffer.sent_bytes"),
                Bound::Below {
                    times: 2,
                    than: counter(Some(1), "buffer.sent_bytes"),
                },
            ),
            expect(
                counter(None, "plane.encodes"),
                Bound::Below {
                    times: 2,
                    than: counter(None, "plane.shared_sends"),
                },
            ),
        ];
        assert!(check(&holds, &slots, &plane).is_empty());
        let fails = [
            expect(counter(None, "client.crc_failures"), Bound::Min(1)),
            expect(counter(Some(2), "client.crc_failures"), Bound::Min(0)),
            expect(
                counter(Some(0), "buffer.sent_bytes"),
                Bound::Below {
                    times: 3,
                    than: counter(Some(1), "buffer.sent_bytes"),
                },
            ),
        ];
        let v = check(&fails, &slots, &plane);
        let details: Vec<&str> = v.iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "slot 1 client.crc_failures = 0, want >= 1: because",
                "slot 2 client.crc_failures does not exist: because",
                "3 x slot 0 buffer.sent_bytes (100) is not below slot 1 buffer.sent_bytes (250): because",
            ]
        );
        assert!(v.iter().all(|v| v.invariant == EXPECTATION));
    }
}
