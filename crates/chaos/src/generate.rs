//! Seeded schedule generation.
//!
//! [`generate`] expands a single `u64` seed into a full
//! [`Schedule`]: every choice — event kinds, slots, rectangles,
//! fault windows, budgets — is drawn from one SplitMix64 stream, so
//! the seed alone reproduces the schedule bit-exactly on any
//! machine. Only recoverable chaos is generated; the deliberate
//! violation hooks ([`ChaosEvent::PoisonFlush`],
//! [`ChaosEvent::SabotagePixel`]) are reserved for tests and the
//! CLI, never drawn here — a generated schedule that fails an
//! invariant is a genuine bug.

use crate::event::{ChaosEvent, FaultKind, Schedule, Workload};
use thinc_net::fault::SplitMix64;
use thinc_protocol::PROTOCOL_VERSION;

/// Upper bound on concurrently attached clients per run.
pub const MAX_SLOTS: usize = 4;

/// The fixed rectangle palette the `Tile` workload draws from:
/// repeated (position, size) pairs produce byte-identical RAW
/// payloads, which is what gives the content cache real work.
const TILE_RECTS: [(i32, i32, u32, u32); 4] = [
    (0, 0, 32, 16),
    (32, 0, 32, 16),
    (0, 24, 32, 16),
    (16, 8, 32, 16),
];

fn pick(rng: &mut SplitMix64, bound: u64) -> u64 {
    rng.next_u64() % bound.max(1)
}

/// Expands `seed` into a schedule of roughly `n_events` events.
///
/// The first event is always an identity-viewport
/// [`ChaosEvent::Attach`] so even heavily shrunk subsequences keep a
/// client to converge; a [`ChaosEvent::Quiesce`] is appended at the
/// end (the runner would add one anyway, but keeping it in the
/// artifact makes replays self-contained).
pub fn generate(seed: u64, n_events: usize) -> Schedule {
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5C4A_05C4_A05C);
    let mut s = Schedule::base(seed);
    let (w, h) = (s.width, s.height);

    // Generator-side mirror of slot population; the runner tolerates
    // dangling references, this just keeps schedules plausible.
    let mut slots: usize = 0;

    s.events.push(ChaosEvent::Attach {
        viewport_w: w,
        viewport_h: h,
        version: PROTOCOL_VERSION,
    });
    slots += 1;

    while s.events.len() < n_events.max(2) {
        let roll = pick(&mut rng, 100);
        let ev = match roll {
            // Draws dominate: the invariants only bite when there is
            // display state to corrupt.
            0..=39 => {
                let workload = match pick(&mut rng, 10) {
                    0..=2 => Workload::Solid,
                    3..=5 => Workload::Noise,
                    6..=8 => Workload::Tile,
                    _ => Workload::Scroll,
                };
                let salt = rng.next_u64();
                let (x, y, rw, rh) = match workload {
                    // Tiles come from the fixed palette so payload
                    // bytes repeat and CacheRefs actually fire.
                    Workload::Tile => TILE_RECTS[(salt % 4) as usize],
                    _ => {
                        let rw = 8 + pick(&mut rng, (w / 2) as u64) as u32;
                        let rh = 8 + pick(&mut rng, (h / 2) as u64) as u32;
                        let x = pick(&mut rng, (w.saturating_sub(rw)).max(1) as u64) as i32;
                        let y = pick(&mut rng, (h.saturating_sub(rh)).max(1) as u64) as i32;
                        (x, y, rw, rh)
                    }
                };
                ChaosEvent::Draw {
                    workload,
                    x,
                    y,
                    w: rw,
                    h: rh,
                    salt,
                }
            }
            40..=64 => ChaosEvent::Flush {
                epochs: 1 + pick(&mut rng, 4) as u32,
                step_ms: 20 + pick(&mut rng, 60) as u32,
            },
            65..=74 => {
                let kind = match pick(&mut rng, 6) {
                    0 => FaultKind::Loss,
                    1 => FaultKind::Outage,
                    2 => FaultKind::Collapse,
                    3 => FaultKind::Corruption,
                    4 => FaultKind::Reorder,
                    _ => FaultKind::Duplicate,
                };
                let rate_pct = match kind {
                    FaultKind::Loss => 2 + pick(&mut rng, 8) as u8,
                    FaultKind::Collapse => 5 + pick(&mut rng, 15) as u8,
                    FaultKind::Outage => 100,
                    _ => 10 + pick(&mut rng, 40) as u8,
                };
                ChaosEvent::Fault {
                    slot: pick(&mut rng, slots as u64) as usize,
                    kind,
                    offset_ms: pick(&mut rng, 80) as u32,
                    // Windows stay well under the liveness timeout so
                    // a connected-but-faulted client is never falsely
                    // declared dead.
                    len_ms: 50 + pick(&mut rng, 350) as u32,
                    rate_pct,
                }
            }
            75..=79 => {
                if slots >= MAX_SLOTS {
                    continue;
                }
                slots += 1;
                // Mostly identity viewports; occasionally a half-size
                // one to route the run through the scaling path.
                if pick(&mut rng, 5) == 0 {
                    ChaosEvent::Attach {
                        viewport_w: w / 2,
                        viewport_h: h / 2,
                        version: PROTOCOL_VERSION,
                    }
                } else {
                    ChaosEvent::Attach {
                        viewport_w: w,
                        viewport_h: h,
                        version: PROTOCOL_VERSION,
                    }
                }
            }
            80..=84 => ChaosEvent::Disconnect {
                slot: pick(&mut rng, slots as u64) as usize,
            },
            85..=89 => ChaosEvent::Reconnect {
                slot: pick(&mut rng, slots as u64) as usize,
            },
            90..=92 => {
                let half = pick(&mut rng, 2) == 0;
                ChaosEvent::Resize {
                    slot: pick(&mut rng, slots as u64) as usize,
                    viewport_w: if half { w / 2 } else { w },
                    viewport_h: if half { h / 2 } else { h },
                }
            }
            93..=94 => ChaosEvent::CacheBudget {
                bytes: [64 * 1024u64, 128 * 1024, 256 * 1024][pick(&mut rng, 3) as usize],
            },
            // Crash/failover stays rare: each one is a full
            // checkpoint-restore-redial cycle, and the interesting
            // bugs live in the traffic around it, not in back-to-back
            // takeovers.
            95 => ChaosEvent::ServerCrash,
            96 => ChaosEvent::Failover,
            _ => ChaosEvent::Quiesce,
        };
        s.events.push(ev);
    }
    s.events.push(ChaosEvent::Quiesce);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = generate(1234, 60);
        let b = generate(1234, 60);
        assert_eq!(a, b);
        let c = generate(1235, 60);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn starts_with_attach_and_ends_with_quiesce() {
        for seed in [0, 7, 42, u64::MAX] {
            let s = generate(seed, 30);
            assert!(matches!(s.events[0], ChaosEvent::Attach { .. }));
            assert_eq!(*s.events.last().unwrap(), ChaosEvent::Quiesce);
            assert!(s.events.len() >= 30);
        }
    }

    #[test]
    fn never_generates_violation_hooks() {
        for seed in 0..20u64 {
            let s = generate(seed, 80);
            assert!(!s.events.iter().any(|e| matches!(
                e,
                ChaosEvent::PoisonFlush { .. } | ChaosEvent::SabotagePixel { .. }
            )));
        }
    }
}
