//! Adaptive degradation: closing the loop from fault telemetry back
//! into the scheduler.
//!
//! The paper's resilience argument (§3, §7 WAN results) is that a
//! stateless client plus server-held state lets a session *degrade
//! and recover* on bad networks. Measuring faults
//! (`thinc-telemetry`'s resilience group) is only half of that: this
//! module is the controller that acts on them. Each flush epoch the
//! server feeds it an [`EpochSignals`] snapshot — buffer debt,
//! overflow evictions, transport fault counters, whether a fault
//! window is live — and it walks a small hysteretic ladder of
//! [`DegradationLevel`]s. Deeper levels shrink the server-side scale
//! (smaller updates), cap the A/V FIFO harder (drop stale video
//! sooner), tighten the display-buffer byte bound (evict earlier,
//! repay as fresh-screen RAW later) and prefer evicting RAW over the
//! compact SFILL/PFILL commands. When the window clears the ladder
//! climbs back and the server owes the client one full refresh to
//! restore full fidelity.
//!
//! Hysteresis both ways — `degrade_after` consecutive pressured
//! epochs to step down, `promote_after` clear epochs to step up —
//! keeps the controller from oscillating on bursty links.

use thinc_protocol::record;

/// Fidelity rungs, shallowest to deepest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Full fidelity: no adaptation applied.
    Full,
    /// Mild pressure: half-resolution updates, tighter A/V cap.
    Reduced,
    /// Sustained pressure: quarter resolution, RAW evicted first.
    Degraded,
    /// Collapse survival: minimum fidelity that still converges.
    Survival,
}

impl DegradationLevel {
    /// All levels, shallowest first.
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::Full,
        DegradationLevel::Reduced,
        DegradationLevel::Degraded,
        DegradationLevel::Survival,
    ];

    /// Ladder index (0 = full fidelity).
    pub fn index(self) -> usize {
        // Declared shallowest first, as `ALL` lists them.
        self as usize
    }

    /// Divisor applied to the client viewport for server-side
    /// scaling: deeper levels send smaller updates.
    pub fn scale_divisor(self) -> u32 {
        [1, 2, 4, 8][self.index()]
    }

    /// Divisor applied to the configured A/V FIFO cap.
    pub fn av_divisor(self) -> usize {
        [1, 2, 4, 8][self.index()]
    }

    /// Divisor applied to the display buffer's byte bound.
    pub fn bound_divisor(self) -> u64 {
        [1, 1, 2, 4][self.index()]
    }

    /// Whether overflow eviction should prefer RAW victims over the
    /// compact SFILL/PFILL/COPY commands (the paper's command
    /// hierarchy: RAW is the fallback format and the first to go).
    pub fn raw_first_eviction(self) -> bool {
        self.index() >= 2
    }

    fn deeper(self) -> DegradationLevel {
        Self::ALL[(self.index() + 1).min(Self::ALL.len() - 1)]
    }

    fn shallower(self) -> DegradationLevel {
        Self::ALL[self.index().saturating_sub(1)]
    }
}

record! {
    /// Controller policy knobs (a checkpoint records them as they are
    /// declared).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DegradationConfig {
        /// Consecutive pressured epochs before stepping one level deeper.
        pub degrade_after: u32,
        /// Consecutive clear epochs before stepping one level back up.
        pub promote_after: u32,
        /// Fraction of the byte bound at which standing backlog counts as
        /// pressure even without fresh fault events.
        pub pressure_fraction: f64,
        /// Deepest level the ladder may reach.
        pub max_level: DegradationLevel,
    }
}

// A level crosses a checkpoint as its ladder index.
thinc_protocol::code_fields! {
    DegradationLevel ("degradation level") { 0 => Full, 1 => Reduced, 2 => Degraded, 3 => Survival }
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self {
            degrade_after: 2,
            promote_after: 4,
            pressure_fraction: 0.5,
            max_level: DegradationLevel::Survival,
        }
    }
}

/// One flush epoch's worth of pressure evidence. Fault counters are
/// cumulative (as the transport and telemetry expose them); the
/// controller differences them against the previous epoch itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSignals {
    /// Wire bytes waiting in the display buffer.
    pub pending_bytes: u64,
    /// The buffer's configured byte bound, if any.
    pub byte_bound: Option<u64>,
    /// Cumulative overflow evictions.
    pub overflow_evictions: u64,
    /// Cumulative sends deferred by outage windows.
    pub outage_defers: u64,
    /// Cumulative congestion rounds served at collapsed rate.
    pub collapsed_rounds: u64,
    /// Cumulative stale audio/video drops.
    pub stale_av_drops: u64,
    /// Cumulative byte-corruption events observed on the link.
    pub corrupt_events: u64,
    /// Cumulative segments the link delivered out of order.
    pub segments_reordered: u64,
    /// Cumulative segments the link delivered more than once.
    pub segments_duplicated: u64,
    /// Whether the transport reports a fault window live right now
    /// (down, collapsed, corrupting, reordering or duplicating).
    pub link_impaired: bool,
}

/// A level change the controller decided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationTransition {
    /// Level before the step.
    pub from: DegradationLevel,
    /// Level after the step.
    pub to: DegradationLevel,
}

impl DegradationTransition {
    /// Whether this step reduced fidelity.
    pub fn is_demotion(&self) -> bool {
        self.to > self.from
    }
}

/// The hysteretic ladder walker.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationController {
    config: DegradationConfig,
    level: DegradationLevel,
    hot_epochs: u32,
    cool_epochs: u32,
    prev: EpochSignals,
    demotions: u64,
    promotions: u64,
}

impl DegradationController {
    /// A controller at full fidelity.
    pub fn new(config: DegradationConfig) -> Self {
        Self {
            config,
            level: DegradationLevel::Full,
            hot_epochs: 0,
            cool_epochs: 0,
            prev: EpochSignals::default(),
            demotions: 0,
            promotions: 0,
        }
    }

    /// A controller restored at a known fidelity level — used when a
    /// session is rebuilt from a checkpoint. Hysteresis counters and
    /// epoch history restart clean (they are deliberately not part of
    /// the checkpoint: a restored server re-observes pressure from
    /// scratch rather than trusting pre-crash momentum), so the first
    /// post-restore transition takes a full `degrade_after` /
    /// `promote_after` run of epochs, same as a fresh controller.
    pub fn restore(config: DegradationConfig, level: DegradationLevel) -> Self {
        Self {
            level,
            ..Self::new(config)
        }
    }

    /// The policy in effect.
    pub fn config(&self) -> DegradationConfig {
        self.config
    }

    /// The current fidelity level.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Fidelity reductions performed so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Fidelity restorations performed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Whether this epoch's signals constitute pressure.
    fn pressured(&self, s: &EpochSignals) -> bool {
        if s.link_impaired {
            return true;
        }
        let fresh_faults = s.overflow_evictions > self.prev.overflow_evictions
            || s.outage_defers > self.prev.outage_defers
            || s.collapsed_rounds > self.prev.collapsed_rounds
            || s.stale_av_drops > self.prev.stale_av_drops
            || s.corrupt_events > self.prev.corrupt_events
            || s.segments_reordered > self.prev.segments_reordered
            || s.segments_duplicated > self.prev.segments_duplicated;
        if fresh_faults {
            return true;
        }
        match s.byte_bound {
            Some(bound) if bound > 0 => {
                s.pending_bytes as f64 >= bound as f64 * self.config.pressure_fraction
            }
            _ => false,
        }
    }

    /// Feeds one epoch of signals; returns the level change, if the
    /// hysteresis thresholds produced one.
    pub fn observe(&mut self, signals: &EpochSignals) -> Option<DegradationTransition> {
        let pressured = self.pressured(signals);
        self.prev = *signals;
        if pressured {
            self.hot_epochs += 1;
            self.cool_epochs = 0;
            if self.hot_epochs >= self.config.degrade_after && self.level < self.config.max_level
            {
                let from = self.level;
                self.level = self.level.deeper().min(self.config.max_level);
                self.hot_epochs = 0;
                self.demotions += 1;
                return Some(DegradationTransition { from, to: self.level });
            }
        } else {
            self.cool_epochs += 1;
            self.hot_epochs = 0;
            if self.cool_epochs >= self.config.promote_after
                && self.level > DegradationLevel::Full
            {
                let from = self.level;
                self.level = self.level.shallower();
                self.cool_epochs = 0;
                self.promotions += 1;
                return Some(DegradationTransition { from, to: self.level });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure(cum: u64) -> EpochSignals {
        EpochSignals {
            overflow_evictions: cum,
            ..EpochSignals::default()
        }
    }

    fn clear() -> EpochSignals {
        EpochSignals::default()
    }

    #[test]
    fn needs_consecutive_pressure_to_demote() {
        let mut c = DegradationController::new(DegradationConfig::default());
        assert_eq!(c.observe(&pressure(1)), None); // 1 hot epoch.
        assert_eq!(c.observe(&clear()), None); // Streak broken.
        assert_eq!(c.observe(&pressure(2)), None);
        let t = c.observe(&pressure(3)).expect("second consecutive hot epoch");
        assert!(t.is_demotion());
        assert_eq!(c.level(), DegradationLevel::Reduced);
        assert_eq!(c.demotions(), 1);
    }

    #[test]
    fn corruption_pressure_counts_like_loss() {
        // Integrity-layer evidence (corruption, reordering,
        // duplication) drives the ladder exactly like loss evidence.
        let mut c = DegradationController::new(DegradationConfig::default());
        let s = |corrupt, reorder, dup| EpochSignals {
            corrupt_events: corrupt,
            segments_reordered: reorder,
            segments_duplicated: dup,
            ..EpochSignals::default()
        };
        assert_eq!(c.observe(&s(1, 0, 0)), None);
        let t = c.observe(&s(1, 1, 0)).expect("fresh reorder sustains the streak");
        assert!(t.is_demotion());
        // Unchanged cumulative values are no longer pressure.
        assert_eq!(c.observe(&s(1, 1, 0)), None);
        assert_eq!(c.observe(&s(1, 1, 1)), None); // dup: 1 hot epoch again
        assert_eq!(c.demotions(), 1);
    }

    #[test]
    fn cumulative_counters_are_differenced() {
        let mut c = DegradationController::new(DegradationConfig::default());
        // The same cumulative value twice is only one fresh event.
        assert_eq!(c.observe(&pressure(5)), None);
        assert_eq!(c.observe(&pressure(5)), None); // No new evictions: clear.
        assert_eq!(c.observe(&pressure(5)), None);
        assert_eq!(c.level(), DegradationLevel::Full);
    }

    #[test]
    fn ladder_descends_to_max_then_recovers() {
        let cfg = DegradationConfig {
            degrade_after: 1,
            promote_after: 2,
            ..DegradationConfig::default()
        };
        let mut c = DegradationController::new(cfg);
        let mut cum = 0;
        for want in [
            DegradationLevel::Reduced,
            DegradationLevel::Degraded,
            DegradationLevel::Survival,
        ] {
            cum += 1;
            let t = c.observe(&pressure(cum)).unwrap();
            assert_eq!(t.to, want);
        }
        // Pinned at the bottom.
        cum += 1;
        assert_eq!(c.observe(&pressure(cum)), None);
        assert_eq!(c.level(), DegradationLevel::Survival);
        // Clear epochs climb back one rung per promote_after.
        let mut promoted = Vec::new();
        for _ in 0..6 {
            if let Some(t) = c.observe(&pressure(cum)) {
                promoted.push(t.to);
            }
        }
        assert_eq!(
            promoted,
            vec![
                DegradationLevel::Degraded,
                DegradationLevel::Reduced,
                DegradationLevel::Full
            ]
        );
        assert_eq!(c.promotions(), 3);
    }

    #[test]
    fn max_level_caps_the_ladder() {
        let cfg = DegradationConfig {
            degrade_after: 1,
            max_level: DegradationLevel::Reduced,
            ..DegradationConfig::default()
        };
        let mut c = DegradationController::new(cfg);
        assert!(c.observe(&pressure(1)).is_some());
        assert_eq!(c.observe(&pressure(2)), None);
        assert_eq!(c.level(), DegradationLevel::Reduced);
    }

    #[test]
    fn standing_backlog_counts_as_pressure() {
        let cfg = DegradationConfig {
            degrade_after: 1,
            ..DegradationConfig::default()
        };
        let mut c = DegradationController::new(cfg);
        let s = EpochSignals {
            pending_bytes: 60,
            byte_bound: Some(100),
            ..EpochSignals::default()
        };
        assert!(c.observe(&s).is_some());
    }

    #[test]
    fn link_impairment_alone_is_pressure() {
        let cfg = DegradationConfig {
            degrade_after: 1,
            ..DegradationConfig::default()
        };
        let mut c = DegradationController::new(cfg);
        let s = EpochSignals {
            link_impaired: true,
            ..EpochSignals::default()
        };
        assert!(c.observe(&s).is_some());
    }

    #[test]
    fn knobs_monotone_along_the_ladder() {
        let mut last = (0, 0, 0);
        for l in DegradationLevel::ALL {
            let k = (l.scale_divisor(), l.av_divisor() as u32, l.bound_divisor() as u32);
            assert!(k.0 >= last.0 && k.1 >= last.1 && k.2 >= last.2, "{l:?}");
            last = k;
        }
        assert!(!DegradationLevel::Full.raw_first_eviction());
        assert!(DegradationLevel::Survival.raw_first_eviction());
    }
}
