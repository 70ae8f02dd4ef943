//! Deterministic fault injection for the simulated network.
//!
//! The paper's resilience story — a stateless client, all display
//! state on the server, sessions that survive bad networks and device
//! switches (§1–§3) — is only believable if bad networks can actually
//! be produced. This module injects them *deterministically*: a
//! [`FaultPlan`] describes what goes wrong on a link (seeded segment
//! loss, byte corruption windows, scheduled outages, bandwidth
//! collapses) and a [`FaultState`] executes the plan from a seeded
//! PRNG, so the same seed over the same workload produces
//! byte-identical degradation every run.
//!
//! The transport effects (loss → retransmit + congestion response,
//! outage → stalled sends, collapse → reduced rate) hook into
//! [`TcpPipe`](crate::tcp::TcpPipe) at flow granularity, matching the
//! rest of the TCP model. Corruption is different: TCP never delivers
//! corrupted payload, but real deployments sit behind broken
//! middleboxes, damaged proxies and buggy drivers, so the plan also
//! supports corruption windows that damage the *byte stream itself*
//! (applied by the harness via
//! [`TcpPipe::corrupt`](crate::tcp::TcpPipe::corrupt)) — this is what
//! exercises the protocol decoder's skip-and-resync path.

use crate::time::{SimDuration, SimTime};

/// A half-open virtual-time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl FaultWindow {
    /// A window covering `[start, start + len)`.
    pub fn new(start: SimTime, len: SimDuration) -> Self {
        Self {
            start,
            end: start + len,
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// A bandwidth-collapse episode: during the window the link serves
/// only `factor` (0–1) of its configured rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollapseWindow {
    /// When the collapse applies.
    pub window: FaultWindow,
    /// Remaining fraction of link rate (0 < factor ≤ 1).
    pub factor: f64,
}

/// A corruption episode: during the window each payload byte is
/// damaged with probability `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionWindow {
    /// When the corruption applies.
    pub window: FaultWindow,
    /// Per-byte damage probability (0–1).
    pub rate: f64,
}

/// A reordering episode: during the window each delivered segment is
/// held back (swapped with the next one) with probability `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderWindow {
    /// When the reordering applies.
    pub window: FaultWindow,
    /// Per-segment hold-back probability (0–1).
    pub rate: f64,
}

/// A duplication episode: during the window each delivered segment is
/// delivered twice with probability `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DuplicateWindow {
    /// When the duplication applies.
    pub window: FaultWindow,
    /// Per-segment duplication probability (0–1).
    pub rate: f64,
}

/// Everything that goes wrong on one link, declaratively.
///
/// Build with the `with_*` combinators; attach to a pipe with
/// [`TcpPipe::set_fault_plan`](crate::tcp::TcpPipe::set_fault_plan)
/// or to a whole environment with
/// [`NetworkConfig::with_faults`](crate::link::NetworkConfig::with_faults).
///
/// ```
/// use thinc_net::fault::FaultPlan;
/// use thinc_net::time::{SimDuration, SimTime};
///
/// let plan = FaultPlan::seeded(42)
///     .with_loss(0.02)
///     .with_outage(SimTime(2_000_000), SimDuration::from_millis(500))
///     .with_collapse(SimTime(4_000_000), SimDuration::from_millis(300), 0.1)
///     .with_corruption(SimTime::ZERO, SimDuration::from_millis(1_000), 0.001);
/// assert!(plan.is_down(SimTime(2_100_000)));
/// assert!(!plan.is_down(SimTime(2_600_000)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// PRNG seed; the same seed reproduces the same fault sequence.
    pub seed: u64,
    /// Per-segment (congestion-round) loss probability (0–1).
    pub loss_rate: f64,
    /// Scheduled link-down windows.
    pub outages: Vec<FaultWindow>,
    /// Scheduled bandwidth collapses.
    pub collapses: Vec<CollapseWindow>,
    /// Scheduled byte-corruption windows.
    pub corruption: Vec<CorruptionWindow>,
    /// Scheduled segment-reordering windows.
    pub reorder: Vec<ReorderWindow>,
    /// Scheduled segment-duplication windows.
    pub duplication: Vec<DuplicateWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the per-segment loss probability.
    pub fn with_loss(mut self, rate: f64) -> Self {
        self.loss_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Adds a link outage of `len` starting at `start`.
    pub fn with_outage(mut self, start: SimTime, len: SimDuration) -> Self {
        self.outages.push(FaultWindow::new(start, len));
        self
    }

    /// Adds a bandwidth collapse to `factor` of link rate.
    pub fn with_collapse(mut self, start: SimTime, len: SimDuration, factor: f64) -> Self {
        self.collapses.push(CollapseWindow {
            window: FaultWindow::new(start, len),
            factor: factor.clamp(1e-6, 1.0),
        });
        self
    }

    /// Adds a byte-corruption window at per-byte probability `rate`.
    pub fn with_corruption(mut self, start: SimTime, len: SimDuration, rate: f64) -> Self {
        self.corruption.push(CorruptionWindow {
            window: FaultWindow::new(start, len),
            rate: rate.clamp(0.0, 1.0),
        });
        self
    }

    /// Adds a segment-reordering window at per-segment probability
    /// `rate`.
    pub fn with_reorder(mut self, start: SimTime, len: SimDuration, rate: f64) -> Self {
        self.reorder.push(ReorderWindow {
            window: FaultWindow::new(start, len),
            rate: rate.clamp(0.0, 1.0),
        });
        self
    }

    /// Adds a segment-duplication window at per-segment probability
    /// `rate`.
    pub fn with_duplication(mut self, start: SimTime, len: SimDuration, rate: f64) -> Self {
        self.duplication.push(DuplicateWindow {
            window: FaultWindow::new(start, len),
            rate: rate.clamp(0.0, 1.0),
        });
        self
    }

    /// Derives a plan with a different seed (for the reverse direction
    /// of a duplex link, so the two flows draw independent faults).
    pub fn reseeded(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }

    /// Whether the link is down at `t`.
    pub fn is_down(&self, t: SimTime) -> bool {
        self.outages.iter().any(|w| w.contains(t))
    }

    /// The earliest time at or after `t` when the link is up. Outage
    /// windows may abut or overlap; chains are followed.
    pub fn next_up(&self, mut t: SimTime) -> SimTime {
        // At most outages.len() hops: each hop exits one window.
        for _ in 0..=self.outages.len() {
            match self.outages.iter().find(|w| w.contains(t)) {
                Some(w) => t = w.end,
                None => return t,
            }
        }
        t
    }

    /// The fraction of link rate available at `t` (1.0 when no
    /// collapse is active; overlapping collapses multiply).
    pub fn rate_factor(&self, t: SimTime) -> f64 {
        self.collapses
            .iter()
            .filter(|c| c.window.contains(t))
            .map(|c| c.factor)
            .product()
    }

    /// The per-byte corruption probability at `t` (0.0 outside every
    /// corruption window).
    pub fn corruption_rate(&self, t: SimTime) -> f64 {
        self.corruption
            .iter()
            .filter(|c| c.window.contains(t))
            .map(|c| c.rate)
            .fold(0.0, f64::max)
    }

    /// The per-segment reorder probability at `t` (0.0 outside every
    /// reorder window).
    pub fn reorder_rate(&self, t: SimTime) -> f64 {
        self.reorder
            .iter()
            .filter(|r| r.window.contains(t))
            .map(|r| r.rate)
            .fold(0.0, f64::max)
    }

    /// The per-segment duplication probability at `t` (0.0 outside
    /// every duplication window).
    pub fn duplication_rate(&self, t: SimTime) -> f64 {
        self.duplication
            .iter()
            .filter(|d| d.window.contains(t))
            .map(|d| d.rate)
            .fold(0.0, f64::max)
    }

    /// Whether the plan injects anything at all.
    pub fn is_noop(&self) -> bool {
        self.loss_rate == 0.0
            && self.outages.is_empty()
            && self.collapses.is_empty()
            && self.corruption.is_empty()
            && self.reorder.is_empty()
            && self.duplication.is_empty()
    }
}

/// Injected-fault counters for one link direction. Plain values,
/// because this crate stays dependency-free: a harness folds them into
/// `thinc-telemetry`'s resilience group by field name
/// (`thinc_core::delivery::fold_fault_stats` destructures this struct
/// exhaustively, so a field added here cannot be left out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Segments lost to injected loss.
    pub segments_lost: u64,
    /// Retransmission rounds performed.
    pub retransmits: u64,
    /// Corruption events (calls that damaged at least one byte).
    pub corrupt_events: u64,
    /// Total bytes damaged.
    pub corrupted_bytes: u64,
    /// Sends deferred or stalled by outage windows.
    pub outage_defers: u64,
    /// Congestion rounds served at collapsed rate.
    pub collapsed_rounds: u64,
    /// Segments delivered out of order.
    pub segments_reordered: u64,
    /// Segments delivered more than once.
    pub segments_duplicated: u64,
}

/// A [`FaultPlan`] in execution: the seeded PRNG plus counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    stats: FaultStats,
    /// Segment held back by an active reorder window, delivered after
    /// the next segment (or by [`flush_disturbed`](Self::flush_disturbed)).
    held: Option<Vec<u8>>,
}

impl FaultState {
    /// Starts executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        Self {
            plan,
            rng,
            stats: FaultStats::default(),
            held: None,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether the link is down at `t`.
    pub fn is_down(&self, t: SimTime) -> bool {
        self.plan.is_down(t)
    }

    /// Earliest up-time at or after `t`; counts a defer when `t` is
    /// inside an outage.
    pub fn defer_past_outage(&mut self, t: SimTime) -> SimTime {
        if self.plan.is_down(t) {
            self.stats.outage_defers += 1;
            self.plan.next_up(t)
        } else {
            t
        }
    }

    /// Rate factor at `t`; counts a collapsed round when below 1.
    pub fn rate_factor_at(&mut self, t: SimTime) -> f64 {
        let f = self.plan.rate_factor(t);
        if f < 1.0 {
            self.stats.collapsed_rounds += 1;
        }
        f
    }

    /// Draws whether the next segment round suffers a loss; counts
    /// loss + retransmit when it does.
    pub fn draw_loss(&mut self) -> bool {
        if self.plan.loss_rate <= 0.0 {
            return false;
        }
        let lost = self.rng.next_f64() < self.plan.loss_rate;
        if lost {
            self.stats.segments_lost += 1;
            self.stats.retransmits += 1;
        }
        lost
    }

    /// Damages `data` in place per the corruption rate active at `t`
    /// (XORing a random nonzero byte — a bit-flip pattern), returning
    /// the number of bytes damaged. Deterministic for a given seed and
    /// call sequence.
    pub fn corrupt(&mut self, t: SimTime, data: &mut [u8]) -> usize {
        let rate = self.plan.corruption_rate(t);
        if rate <= 0.0 || data.is_empty() {
            return 0;
        }
        let mut damaged = 0;
        for b in data.iter_mut() {
            if self.rng.next_f64() < rate {
                let mut flip = (self.rng.next_u64() & 0xFF) as u8;
                if flip == 0 {
                    flip = 0x80;
                }
                *b ^= flip;
                damaged += 1;
            }
        }
        if damaged > 0 {
            self.stats.corrupt_events += 1;
            self.stats.corrupted_bytes += damaged as u64;
        }
        damaged
    }

    /// Applies every byte-stream disturbance active at `t` to one
    /// outgoing segment and returns the segments to deliver, in order.
    ///
    /// Corruption happens first (in place), then reordering — a
    /// segment may be held back and released after its successor —
    /// then duplication appends a second copy of the segment. A held
    /// segment is released by the next `disturb` call or by
    /// [`flush_disturbed`](Self::flush_disturbed) at end of stream.
    /// Plans without reorder/duplication windows draw no extra PRNG
    /// values, so existing corruption-only seeds reproduce the exact
    /// byte streams they always did.
    pub fn disturb(&mut self, t: SimTime, mut seg: Vec<u8>) -> Vec<Vec<u8>> {
        self.corrupt(t, &mut seg);
        let reorder = self.plan.reorder_rate(t);
        if reorder > 0.0
            && self.held.is_none()
            && !seg.is_empty()
            && self.rng.next_f64() < reorder
        {
            self.stats.segments_reordered += 1;
            self.held = Some(seg);
            return Vec::new();
        }
        let mut out = Vec::with_capacity(3);
        out.push(seg);
        if let Some(held) = self.held.take() {
            out.push(held);
        }
        let dup = self.plan.duplication_rate(t);
        if dup > 0.0 && self.rng.next_f64() < dup {
            self.stats.segments_duplicated += 1;
            out.push(out[0].clone());
        }
        out
    }

    /// Releases a segment still held back by a reorder window, if any.
    /// Call when the stream ends so no bytes are silently dropped.
    pub fn flush_disturbed(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }
}

/// SplitMix64: a tiny, high-quality, dependency-free PRNG. Chosen
/// because its state is one `u64` (cheap to clone with the pipe) and
/// its output is fully determined by the seed — the property the
/// resilience tests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniform_ish() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mean: f64 = (0..10_000).map(|_| a.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    #[test]
    fn outage_windows_chain() {
        let plan = FaultPlan::seeded(1)
            .with_outage(SimTime(1_000), SimDuration(500))
            .with_outage(SimTime(1_500), SimDuration(500));
        assert!(plan.is_down(SimTime(1_000)));
        assert!(plan.is_down(SimTime(1_999)));
        assert!(!plan.is_down(SimTime(2_000)));
        assert_eq!(plan.next_up(SimTime(1_200)), SimTime(2_000));
        assert_eq!(plan.next_up(SimTime(500)), SimTime(500));
    }

    #[test]
    fn collapse_factors_multiply() {
        let plan = FaultPlan::seeded(1)
            .with_collapse(SimTime(0), SimDuration(1_000), 0.5)
            .with_collapse(SimTime(500), SimDuration(1_000), 0.5);
        assert_eq!(plan.rate_factor(SimTime(100)), 0.5);
        assert_eq!(plan.rate_factor(SimTime(700)), 0.25);
        assert_eq!(plan.rate_factor(SimTime(2_000)), 1.0);
    }

    #[test]
    fn corruption_only_inside_window() {
        let plan =
            FaultPlan::seeded(3).with_corruption(SimTime(1_000), SimDuration(1_000), 1.0);
        let mut state = FaultState::new(plan);
        let mut clean = vec![0u8; 64];
        assert_eq!(state.corrupt(SimTime(0), &mut clean), 0);
        assert_eq!(clean, vec![0u8; 64]);
        let mut dirty = vec![0u8; 64];
        assert_eq!(state.corrupt(SimTime(1_500), &mut dirty), 64);
        assert_ne!(dirty, vec![0u8; 64]);
        assert_eq!(state.stats().corrupted_bytes, 64);
        assert_eq!(state.stats().corrupt_events, 1);
    }

    #[test]
    fn corruption_is_seed_deterministic() {
        let plan = FaultPlan::seeded(9).with_corruption(SimTime(0), SimDuration(1_000), 0.3);
        let run = || {
            let mut s = FaultState::new(plan.clone());
            let mut data = vec![0xAAu8; 256];
            s.corrupt(SimTime(10), &mut data);
            data
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_draws_match_rate_roughly() {
        let mut s = FaultState::new(FaultPlan::seeded(11).with_loss(0.1));
        let lost = (0..10_000).filter(|_| s.draw_loss()).count();
        assert!((800..1200).contains(&lost), "{lost}");
        assert_eq!(s.stats().segments_lost as usize, lost);
    }

    #[test]
    fn noop_plan_detected() {
        assert!(FaultPlan::seeded(5).is_noop());
        assert!(!FaultPlan::seeded(5).with_loss(0.01).is_noop());
        assert!(!FaultPlan::seeded(5)
            .with_reorder(SimTime(0), SimDuration(1), 0.5)
            .is_noop());
        assert!(!FaultPlan::seeded(5)
            .with_duplication(SimTime(0), SimDuration(1), 0.5)
            .is_noop());
    }

    #[test]
    fn disturb_preserves_bytes_and_multiset() {
        // Reorder + duplication never lose or damage payload when no
        // corruption window is active: every input segment comes out
        // at least once, duplicates are exact copies.
        let plan = FaultPlan::seeded(21)
            .with_reorder(SimTime(0), SimDuration(1_000_000), 0.4)
            .with_duplication(SimTime(0), SimDuration(1_000_000), 0.3);
        let mut s = FaultState::new(plan);
        let inputs: Vec<Vec<u8>> = (0..200u8).map(|i| vec![i; 3]).collect();
        let mut delivered = Vec::new();
        for seg in &inputs {
            delivered.extend(s.disturb(SimTime(10), seg.clone()));
        }
        if let Some(tail) = s.flush_disturbed() {
            delivered.push(tail);
        }
        let stats = s.stats();
        assert!(stats.segments_reordered > 0, "{stats:?}");
        assert!(stats.segments_duplicated > 0, "{stats:?}");
        assert_eq!(
            delivered.len(),
            inputs.len() + stats.segments_duplicated as usize
        );
        // Every input appears; dedup restores the original multiset.
        let mut seen = delivered.clone();
        seen.sort();
        seen.dedup();
        let mut want = inputs.clone();
        want.sort();
        want.dedup();
        assert_eq!(seen, want);
    }

    #[test]
    fn disturb_without_windows_is_transparent_and_drawless() {
        let plan = FaultPlan::seeded(33).with_loss(0.5);
        let mut s = FaultState::new(plan.clone());
        let mut reference = FaultState::new(plan);
        let out = s.disturb(SimTime(5), vec![1, 2, 3]);
        assert_eq!(out, vec![vec![1, 2, 3]]);
        assert_eq!(s.flush_disturbed(), None);
        // No PRNG draws happened: the loss sequence is unchanged.
        let a: Vec<bool> = (0..64).map(|_| s.draw_loss()).collect();
        let b: Vec<bool> = (0..64).map(|_| reference.draw_loss()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn disturb_is_seed_deterministic() {
        let plan = FaultPlan::seeded(77)
            .with_reorder(SimTime(0), SimDuration(1_000), 0.5)
            .with_duplication(SimTime(0), SimDuration(1_000), 0.5);
        let run = || {
            let mut s = FaultState::new(plan.clone());
            let mut out = Vec::new();
            for i in 0..50u8 {
                out.extend(s.disturb(SimTime(1), vec![i]));
            }
            out.extend(s.flush_disturbed());
            (out, s.stats())
        };
        assert_eq!(run(), run());
    }
}
