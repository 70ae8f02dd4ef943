//! The global invariant catalog and run verdicts.
//!
//! Each invariant has a stable name — the string checked-in failure
//! artifacts reference via `expect_violation` — and is evaluated by
//! the runner at every quiesce point, after the system has been
//! given a fault-free drain window:
//!
//! | name | claim |
//! |------|-------|
//! | [`CONVERGENCE`] | every connected, un-quarantined client's framebuffer is byte-exact against the authoritative screen (through its scale policy for resized viewports) |
//! | [`CACHE_COHERENCE`] | server ledger and client store hold the identical sorted key set for every undamaged client; damaged clients still satisfy hit-count conservation; no cache miss is left unanswered |
//! | [`REFRESH_DEBT`] | refresh debt, overflow debt, queued fallbacks and backlog all drain to zero within the quiesce window |
//! | [`BUFFER_BOUND`] | a client's buffered bytes never exceed its byte bound plus bounded repay slack, at any pump of the run |
//! | [`LIVENESS`] | connected clients are never declared dead at quiesce; clients disconnected longer than the timeout always are |
//! | [`TELEMETRY`] | counters obey conservation: `resyncs_triggered <= seq_gaps`, `retransmits == segments_lost`, client cache hits never exceed refs served |
//! | [`QUARANTINE`] | a poisoned flush quarantines exactly the poisoned clients; the session keeps serving everyone else |
//! | [`FAILOVER`] | every checkpoint image round-trips: restoring it and re-checkpointing against the same screen reproduces the image byte-for-byte, and a restored standby converges every redialing client (checked by [`CONVERGENCE`] at the next quiesce) |
//! | [`EXPECTATION`] | every assertion of the schedule's own `expect` block holds after the final quiesce (see [`crate::expect`]) |

/// Name of the framebuffer-convergence invariant.
pub const CONVERGENCE: &str = "convergence";
/// Name of the server-ledger/client-store coherence invariant.
pub const CACHE_COHERENCE: &str = "cache-coherence";
/// Name of the debt-drains-to-zero invariant.
pub const REFRESH_DEBT: &str = "refresh-debt";
/// Name of the per-client buffer bound invariant.
pub const BUFFER_BOUND: &str = "buffer-bound";
/// Name of the liveness-verdict consistency invariant.
pub const LIVENESS: &str = "liveness";
/// Name of the telemetry counter-conservation invariant.
pub const TELEMETRY: &str = "telemetry-conservation";
/// Name of the panic-quarantine containment invariant.
pub const QUARANTINE: &str = "quarantine-containment";
/// Name of the checkpoint/failover fidelity invariant.
pub const FAILOVER: &str = "failover-fidelity";
/// Name of the schedule's own `expect` block.
pub const EXPECTATION: &str = "expectation";

/// Every invariant name, for catalogs and CLI help.
pub const ALL: [&str; 9] = [
    CONVERGENCE,
    CACHE_COHERENCE,
    REFRESH_DEBT,
    BUFFER_BOUND,
    LIVENESS,
    TELEMETRY,
    QUARANTINE,
    FAILOVER,
    EXPECTATION,
];

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant (one of the names in [`ALL`]).
    pub invariant: String,
    /// Human-readable specifics: slot, counters, expected vs actual.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The outcome of running one schedule to completion.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Every violation observed, in detection order.
    pub violations: Vec<Violation>,
    /// Events executed (always the full schedule; events are
    /// removal-tolerant, never aborting).
    pub events_executed: usize,
    /// Quiesce checkpoints evaluated (including the implicit final
    /// one).
    pub quiesces: usize,
    /// Total clients attached over the run.
    pub slots_attached: usize,
    /// Clients quarantined by flush panic containment.
    pub quarantined: usize,
}

impl RunReport {
    /// Whether every invariant held at every checkpoint.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether some violation of the named invariant was observed.
    pub fn violated(&self, invariant: &str) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }

    /// Whether the run reached the outcome a schedule records:
    /// `expect_violation` violated, or, when it names nothing, every
    /// invariant held. The one verdict replay and the schedule table
    /// both give.
    pub fn matches(&self, expect_violation: Option<&str>) -> bool {
        match expect_violation {
            None => self.passed(),
            Some(inv) => self.violated(inv),
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.passed() {
            format!(
                "PASS: {} events, {} quiesce checks, {} clients ({} quarantined)",
                self.events_executed, self.quiesces, self.slots_attached, self.quarantined
            )
        } else {
            format!(
                "FAIL: {} violation(s), first: {}",
                self.violations.len(),
                self.violations[0]
            )
        }
    }
}
