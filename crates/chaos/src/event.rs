//! The chaos event vocabulary and the schedule that sequences it.
//!
//! A [`Schedule`] is a fully self-describing experiment: a seed, the
//! session geometry, the budgets, an ordered list of
//! [`ChaosEvent`]s, and what the run must count beyond the invariant
//! catalog (its [`expect`](crate::expect) block). Running the same
//! schedule twice produces the same byte streams, the same telemetry
//! and the same verdicts — there is no hidden state, no wall clock
//! and no ambient RNG.
//!
//! Every event is **removal-tolerant**: an event referencing a slot
//! that a shrunken schedule never attached (or that is quarantined)
//! degrades to a no-op instead of an error. That property is what
//! makes delta-debugging sound — *any* subsequence of a valid
//! schedule is itself a valid schedule (see [`crate::shrink()`]).

use crate::expect::Expectation;
use crate::json::{differs, Field, Fields, Json, SchemaError};
use thinc_protocol::PROTOCOL_VERSION;

/// The kind of transport fault a [`ChaosEvent::Fault`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Random segment loss (recovered by simulated retransmission).
    Loss,
    /// A total link outage window (sends defer, buffers accumulate).
    Outage,
    /// A bandwidth-collapse window (rate multiplied by `rate_pct`%).
    Collapse,
    /// Byte corruption in flight (caught by per-frame CRC32).
    Corruption,
    /// Segment reordering (held segments released out of order).
    Reorder,
    /// Segment duplication (dropped by sequence-number framing).
    Duplicate,
}

impl FaultKind {
    /// Stable wire name used in the JSON artifact format.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Loss => "loss",
            FaultKind::Outage => "outage",
            FaultKind::Collapse => "collapse",
            FaultKind::Corruption => "corruption",
            FaultKind::Reorder => "reorder",
            FaultKind::Duplicate => "duplicate",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "loss" => FaultKind::Loss,
            "outage" => FaultKind::Outage,
            "collapse" => FaultKind::Collapse,
            "corruption" => FaultKind::Corruption,
            "reorder" => FaultKind::Reorder,
            "duplicate" => FaultKind::Duplicate,
            _ => return None,
        })
    }
}

/// What a [`ChaosEvent::Draw`] paints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A solid fill (SFILL on the wire; color derived from `salt`).
    Solid,
    /// Per-pixel noise (RAW on the wire; bytes derived from `salt`).
    Noise,
    /// One of a small palette of repeating patterns (RAW payloads
    /// that repeat exactly, so the content cache sees hits).
    Tile,
    /// A copy of existing screen content shifted by a fixed delta
    /// (COPY on the wire — the non-idempotent command that makes
    /// duplicate suppression load-bearing).
    Scroll,
    /// Flat graphic content: bands of repeated rows, each row a few
    /// runs of colour, all derived from `salt` (a compressed RAW on
    /// the wire that repeats exactly, so the client's cache hits
    /// reach a decode). The generator never emits it.
    Flat,
}

impl Workload {
    /// Stable wire name used in the JSON artifact format.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solid => "solid",
            Workload::Noise => "noise",
            Workload::Tile => "tile",
            Workload::Scroll => "scroll",
            Workload::Flat => "flat",
        }
    }

    /// Parses a wire name back into a workload.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "solid" => Workload::Solid,
            "noise" => Workload::Noise,
            "tile" => Workload::Tile,
            "scroll" => Workload::Scroll,
            "flat" => Workload::Flat,
            _ => return None,
        })
    }
}

/// Declares the event vocabulary once, one row per event: its doc,
/// its variant, its `type` in the artifact format, and its fields (a
/// field with `= default` may be left out of an artifact and is
/// written only when it differs). The enum, [`ChaosEvent::tag`] and
/// the event's JSON form are generated from the row, so no field can
/// be written under one name and read under another.
macro_rules! events {
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal $({
            $($(#[$fdoc:meta])* $field:ident: $ty:ty $(= $default:expr)?,)*
        })?,
    )+) => {
        /// One step of a chaos schedule.
        ///
        /// `slot` indices are stable for the lifetime of a run: slot `n` is
        /// the `n`-th [`Attach`](Self::Attach) executed, and disconnecting or
        /// quarantining a slot never renumbers the others.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum ChaosEvent {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty,)* })?,)+
        }

        impl ChaosEvent {
            /// Short human-readable tag for logs and shrink traces (the
            /// event's `type` in the artifact format).
            pub fn tag(&self) -> &'static str {
                match self {
                    $(ChaosEvent::$variant { .. } => $tag,)+
                }
            }

            /// The event's fields in artifact order, `type` first.
            pub(crate) fn to_fields(&self) -> Vec<(&'static str, Json)> {
                let mut f = vec![("type", Json::Str(self.tag().into()))];
                match self {
                    $(ChaosEvent::$variant $({ $($field,)* })? => {
                        $($(if differs($field, events!(@default $($default)?)) {
                            f.push((stringify!($field), $field.to_json()));
                        })*)?
                    })+
                }
                f
            }

            /// The event of type `tag`, its fields taken from `f`.
            pub(crate) fn from_fields(tag: &str, f: &mut Fields) -> Result<Self, SchemaError> {
                Ok(match tag {
                    $($tag => ChaosEvent::$variant $({ $(
                        $field: f.or(stringify!($field), events!(@default $($default)?))?,
                    )* })?,)+
                    other => return Err(f.bad("type", &format!("names no event: '{other}'"))),
                })
            }
        }
    };
}

events! {
    /// Attach a new client with the given viewport (clamped to the
    /// session geometry; equal to it for an identity client, smaller
    /// for a server-side-scaled one).
    Attach = "attach" {
        /// Requested viewport width.
        viewport_w: u32,
        /// Requested viewport height.
        viewport_h: u32,
        /// The protocol revision the client speaks (this build's unless
        /// the schedule says otherwise, clamped to 1..=this build's;
        /// revision 1 is legacy framing without the cache, revision 2
        /// checksummed framing without it).
        version: u16 = PROTOCOL_VERSION,
    },
    /// Abruptly sever a client's connection: in-flight data already
    /// on the wire still arrives, everything after is black-holed
    /// (modeled as an indefinite outage, so the server's buffer
    /// accumulates and its eviction/merge bound is exercised).
    Disconnect = "disconnect" {
        /// Target slot.
        slot: usize,
    },
    /// Re-establish a slot's connection: a fresh pipe, a soft client
    /// reconnect (display state survives) and a server-side resync.
    /// Issued against a connected slot it models a fast redial.
    Reconnect = "reconnect" {
        /// Target slot.
        slot: usize,
    },
    /// Mid-session viewport change (device switch). The client's
    /// local display and cache store restart at the new geometry.
    Resize = "resize" {
        /// Target slot.
        slot: usize,
        /// New viewport width.
        viewport_w: u32,
        /// New viewport height.
        viewport_h: u32,
    },
    /// Arm a fault window on a slot's downlink, composing with any
    /// windows already armed on that pipe.
    Fault = "fault" {
        /// Target slot.
        slot: usize,
        /// What kind of disturbance.
        kind: FaultKind,
        /// Window start, milliseconds after the current virtual time.
        offset_ms: u32,
        /// Window length, milliseconds.
        len_ms: u32,
        /// Kind-specific intensity in percent: loss/corruption/
        /// reorder/duplication probability, or the collapse factor.
        rate_pct: u8,
    },
    /// Change the content-cache budget for clients attached from now
    /// on (already-attached clients keep their negotiated budget —
    /// the ledger/store mirror requires it).
    CacheBudget = "cache_budget" {
        /// New budget, bytes.
        bytes: u64,
    },
    /// Paint the session screen and broadcast the update.
    Draw = "draw" {
        /// What to paint.
        workload: Workload,
        /// Destination rectangle origin x.
        x: i32,
        /// Destination rectangle origin y.
        y: i32,
        /// Destination rectangle width.
        w: u32,
        /// Destination rectangle height.
        h: u32,
        /// Deterministic content selector (color, noise seed,
        /// pattern index, scroll delta or flat bands).
        salt: u64,
    },
    /// Advance virtual time in steps, flushing every client and
    /// routing upstream traffic (pongs, cache misses, refresh
    /// requests) after each step.
    Flush = "flush" {
        /// Number of steps.
        epochs: u32,
        /// Virtual time per step, milliseconds.
        step_ms: u32,
    },
    /// Test-only: arm the injected panic in a slot's next flush. The
    /// generator never emits this — it exists to prove the
    /// quarantine path end to end.
    PoisonFlush = "poison_flush" {
        /// Target slot.
        slot: usize,
    },
    /// Test-only: silently flip one pixel in a slot's *local*
    /// framebuffer, violating convergence on purpose. The generator
    /// never emits this — it exists to prove the invariant checker
    /// and the shrinker catch a real divergence.
    SabotagePixel = "sabotage_pixel" {
        /// Target slot.
        slot: usize,
    },
    /// Crash the server and fail over to a warm standby restored
    /// from a **crash-instant** checkpoint image. Every connected
    /// client redials presenting its resume token
    /// (`MSG_SESSION_RESUME`): matching tokens resume warm (the
    /// standby ships only the checkpoint-vs-live tile delta), stale
    /// or unusable ones fall back to a cold reconnect. Clients the
    /// old incarnation had quarantined died with it and reattach
    /// fresh; severed clients stay severed.
    ServerCrash = "server_crash",
    /// Fail over to a warm standby restored from the checkpoint
    /// taken at the **previous quiesce** (crash-instant when no
    /// quiesce has run yet). The standby's state lags live, so
    /// resume tokens can legitimately be rejected (cache digest
    /// drift) and clients attached since that quiesce reattach from
    /// scratch — the stale-image stress the warm path must absorb
    /// without losing convergence.
    Failover = "failover",
    /// Drain the system to a settled state and check every global
    /// invariant (a final quiesce always runs at end of schedule,
    /// whether or not the event list ends with one).
    Quiesce = "quiesce",
}

/// A complete, self-describing chaos experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// What the scenario exercises and why it exists, in words.
    pub why: Option<String>,
    /// Seed every derived PRNG (fault plans, jitter) descends from.
    pub seed: u64,
    /// Session framebuffer width.
    pub width: u32,
    /// Session framebuffer height.
    pub height: u32,
    /// Content-cache budget installed at session start, bytes.
    pub cache_budget: u64,
    /// Per-client buffer byte bound (eviction/merge kicks in above).
    pub buffer_bound: u64,
    /// The ordered event list.
    pub events: Vec<ChaosEvent>,
    /// For checked-in failure artifacts: the invariant this schedule
    /// is *expected* to violate. Replay exits successfully only when
    /// the expectation matches the outcome.
    pub expect_violation: Option<String>,
    /// What the run must count beyond the invariant catalog, checked
    /// after its final quiesce (see [`crate::expect`]).
    pub expect: Vec<Expectation>,
}

impl Schedule {
    /// A schedule with the engine's default geometry and budgets and
    /// an empty event list.
    pub fn base(seed: u64) -> Self {
        Schedule {
            why: None,
            seed,
            width: 64,
            height: 48,
            cache_budget: 256 * 1024,
            buffer_bound: 96 * 1024,
            events: Vec::new(),
            expect_violation: None,
            expect: Vec::new(),
        }
    }

    /// This schedule with a different event list (shrinking helper —
    /// everything else, notably the seed, is preserved so candidate
    /// subsequences replay in the identical environment).
    pub fn with_events(&self, events: Vec<ChaosEvent>) -> Self {
        Schedule {
            events,
            ..self.clone()
        }
    }
}
